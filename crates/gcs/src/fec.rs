//! Systematic erasure coding for the rekey fan-out: `k` data shards
//! plus `r` parity shards, any `k` of which reconstruct the data.
//!
//! The code is a systematic Reed–Solomon code over GF(256)
//! (XOR/Vandermonde-style, as in "Error Detection and Correction for
//! Distributed Group Key Agreement Protocol"): the `k` data shards are
//! read as the values of a degree-`< k` polynomial at the evaluation
//! points `0..k`, and each parity shard `j` is the same polynomial
//! evaluated at point `k + j`. Any `k` distinct evaluations determine
//! the polynomial, so any `k` of the `k + r` shards recover every data
//! shard — the receiver Lagrange-interpolates the missing points. For
//! `r = 1` and `k = 1` this degenerates to plain replication, and a
//! single parity shard generally plays the role of the classic XOR
//! parity: one lost data shard is always repairable.
//!
//! Everything here is a pure function of its inputs — no randomness,
//! no clocks, no allocation beyond the output shards — so encoding and
//! decoding are deterministic and safe to use inside the discrete-event
//! engine. All fallible paths return `Option` rather than panicking.
//!
//! Shards within one generation must share a common length; the engine
//! zero-pads data records to the generation's maximum record length
//! and embeds each record's true length in its header, so padding is
//! recoverable after decode.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::unreachable, clippy::todo, clippy::unimplemented)]

/// GF(256) modulus: the AES/Rijndael-adjacent polynomial
/// `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), the standard Reed–Solomon
/// field generator with primitive element 2.
const GF_POLY: u16 = 0x11d;

/// Builds the exp/log tables for GF(256) at compile time. `exp` is
/// doubled to 512 entries so `exp[log a + log b]` never wraps.
const fn build_tables() -> ([u8; 512], [u8; 256]) {
    let mut exp = [0u8; 512];
    let mut log = [0u8; 256];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        log[x as usize] = i as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= GF_POLY;
        }
        i += 1;
    }
    let mut j = 255;
    while j < 512 {
        exp[j] = exp[j - 255];
        j += 1;
    }
    (exp, log)
}

const TABLES: ([u8; 512], [u8; 256]) = build_tables();
const GF_EXP: [u8; 512] = TABLES.0;
const GF_LOG: [u8; 256] = TABLES.1;

/// GF(256) multiplication via the log/exp tables.
fn gf_mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        GF_EXP[GF_LOG[a as usize] as usize + GF_LOG[b as usize] as usize]
    }
}

/// GF(256) multiplicative inverse; `None` for zero.
fn gf_inv(a: u8) -> Option<u8> {
    if a == 0 {
        None
    } else {
        Some(GF_EXP[255 - GF_LOG[a as usize] as usize])
    }
}

/// The Lagrange basis coefficient `L_i(t)` over the evaluation points
/// `pts` (addition/subtraction in GF(2^8) are both XOR). `None` only
/// if `pts` contains duplicates (a caller bug the code degrades on
/// rather than panicking).
fn lagrange_coeff(pts: &[u8], i: usize, t: u8) -> Option<u8> {
    let xi = *pts.get(i)?;
    let mut num = 1u8;
    let mut den = 1u8;
    for (j, &xj) in pts.iter().enumerate() {
        if j == i {
            continue;
        }
        num = gf_mul(num, t ^ xj);
        den = gf_mul(den, xi ^ xj);
    }
    Some(gf_mul(num, gf_inv(den)?))
}

/// Maximum total shard count (`k + r`): one evaluation point per shard
/// in GF(256).
pub const MAX_SHARDS: usize = 256;

/// Encodes `r` parity shards over `data`. Data shards may have
/// different lengths; each parity shard has the maximum data-shard
/// length (shorter shards are treated as zero-padded, so the decoder
/// must be told — or carry — each record's true length).
///
/// Returns `None` when `data` is empty or `data.len() + r` exceeds
/// [`MAX_SHARDS`]; `Some(vec![])` when `r` is zero.
pub fn encode(data: &[Vec<u8>], r: usize) -> Option<Vec<Vec<u8>>> {
    let k = data.len();
    if k == 0 || k + r > MAX_SHARDS {
        return None;
    }
    if r == 0 {
        return Some(Vec::new());
    }
    let len = data.iter().map(Vec::len).max().unwrap_or(0);
    let pts: Vec<u8> = (0..k as u16).map(|p| p as u8).collect();
    let mut parity = Vec::with_capacity(r);
    for j in 0..r {
        let t = (k + j) as u8;
        let mut shard = vec![0u8; len];
        for (i, d) in data.iter().enumerate() {
            let c = lagrange_coeff(&pts, i, t)?;
            if c == 0 {
                continue;
            }
            for (b, &v) in d.iter().enumerate() {
                shard[b] ^= gf_mul(c, v);
            }
        }
        parity.push(shard);
    }
    Some(parity)
}

/// Reconstructs all `k` data shards from any `k` shards of the
/// generation. `have` pairs each shard with its global index — `0..k`
/// for data shards, `k..` for parity shards as produced by
/// [`encode`]. Extra shards beyond `k` are ignored (the first `k` in
/// ascending index order are used); shorter shards are treated as
/// zero-padded to the longest provided shard.
///
/// Returns `None` when fewer than `k` distinct shard indices are
/// provided, an index is out of range, or `k` is zero/too large.
pub fn decode(k: usize, have: &[(usize, &[u8])]) -> Option<Vec<Vec<u8>>> {
    if k == 0 || k > MAX_SHARDS {
        return None;
    }
    let mut used: Vec<(usize, &[u8])> = have.to_vec();
    used.sort_by_key(|(i, _)| *i);
    used.dedup_by_key(|(i, _)| *i);
    if used.len() < k || used.iter().any(|&(i, _)| i >= MAX_SHARDS) {
        return None;
    }
    used.truncate(k);
    let len = used.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    let pts: Vec<u8> = used.iter().map(|&(i, _)| i as u8).collect();
    let mut out: Vec<Vec<u8>> = Vec::with_capacity(k);
    for m in 0..k {
        // Fast path: the data shard itself is among the provided set.
        if let Some(&(_, s)) = used.iter().find(|&&(i, _)| i == m) {
            let mut shard = s.to_vec();
            shard.resize(len, 0);
            out.push(shard);
            continue;
        }
        let mut shard = vec![0u8; len];
        for (s, &(_, body)) in used.iter().enumerate() {
            let c = lagrange_coeff(&pts, s, m as u8)?;
            if c == 0 {
                continue;
            }
            for (b, &v) in body.iter().enumerate() {
                shard[b] ^= gf_mul(c, v);
            }
        }
        out.push(shard);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gen(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| (0..len).map(|b| (i * 37 + b * 11 + 3) as u8).collect())
            .collect()
    }

    #[test]
    fn field_tables_are_consistent() {
        // exp/log are inverse bijections on the nonzero elements.
        for a in 1u16..=255 {
            let a = a as u8;
            assert_eq!(GF_EXP[GF_LOG[a as usize] as usize], a);
            let inv = gf_inv(a).unwrap();
            assert_eq!(gf_mul(a, inv), 1, "a * a^-1 must be 1 for a={a}");
        }
        assert_eq!(gf_mul(0, 7), 0);
        assert!(gf_inv(0).is_none());
    }

    #[test]
    fn decode_from_data_only_is_identity() {
        let data = gen(4, 16);
        let have: Vec<(usize, &[u8])> = data
            .iter()
            .enumerate()
            .map(|(i, d)| (i, d.as_slice()))
            .collect();
        assert_eq!(decode(4, &have).unwrap(), data);
    }

    #[test]
    fn any_k_of_k_plus_r_recover() {
        let k = 5;
        let r = 3;
        let data = gen(k, 24);
        let parity = encode(&data, r).unwrap();
        assert_eq!(parity.len(), r);
        let all: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();
        // Every way of dropping r shards still recovers the data.
        for a in 0..k + r {
            for b in (a + 1)..k + r {
                for c in (b + 1)..k + r {
                    let have: Vec<(usize, &[u8])> = all
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| *i != a && *i != b && *i != c)
                        .map(|(i, s)| (i, s.as_slice()))
                        .collect();
                    let got = decode(k, &have).unwrap();
                    assert_eq!(got, data, "dropping shards {a},{b},{c}");
                }
            }
        }
    }

    #[test]
    fn single_parity_repairs_single_loss() {
        // The r = 1 case: one parity shard repairs any one lost data
        // shard (the XOR-parity role).
        let k = 7;
        let data = gen(k, 9);
        let parity = encode(&data, 1).unwrap();
        for lost in 0..k {
            let mut have: Vec<(usize, &[u8])> = data
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != lost)
                .map(|(i, s)| (i, s.as_slice()))
                .collect();
            have.push((k, parity[0].as_slice()));
            assert_eq!(decode(k, &have).unwrap(), data, "lost shard {lost}");
        }
    }

    #[test]
    fn unequal_record_lengths_zero_pad() {
        let data = vec![vec![1, 2, 3], vec![9], vec![4, 5, 6, 7, 8]];
        let parity = encode(&data, 2).unwrap();
        assert!(parity.iter().all(|p| p.len() == 5));
        // Lose the two shorter records; recover them zero-padded.
        let have: Vec<(usize, &[u8])> = vec![
            (2, data[2].as_slice()),
            (3, parity[0].as_slice()),
            (4, parity[1].as_slice()),
        ];
        let got = decode(3, &have).unwrap();
        assert_eq!(got[0], vec![1, 2, 3, 0, 0]);
        assert_eq!(got[1], vec![9, 0, 0, 0, 0]);
        assert_eq!(got[2], data[2]);
    }

    #[test]
    fn encoding_is_deterministic() {
        let data = gen(6, 32);
        assert_eq!(encode(&data, 4), encode(&data, 4));
    }

    #[test]
    fn degenerate_inputs_degrade_gracefully() {
        assert!(encode(&[], 2).is_none(), "empty generation");
        assert_eq!(encode(&gen(3, 4), 0), Some(Vec::new()), "r = 0 is a no-op");
        assert!(
            encode(&gen(200, 1), 60).is_none(),
            "k + r over the field size"
        );
        assert!(decode(0, &[]).is_none());
        let d = gen(3, 4);
        let too_few: Vec<(usize, &[u8])> = d
            .iter()
            .take(2)
            .enumerate()
            .map(|(i, s)| (i, s.as_slice()))
            .collect();
        assert!(decode(3, &too_few).is_none(), "k-1 shards cannot decode");
        // Duplicate indices do not count twice.
        let dup: Vec<(usize, &[u8])> = vec![
            (0, d[0].as_slice()),
            (0, d[0].as_slice()),
            (1, d[1].as_slice()),
        ];
        assert!(decode(3, &dup).is_none());
    }

    #[test]
    fn extra_shards_are_ignored() {
        let data = gen(4, 8);
        let parity = encode(&data, 3).unwrap();
        let mut have: Vec<(usize, &[u8])> = Vec::new();
        // All 7 shards provided; only 4 are needed.
        for (i, s) in data.iter().enumerate() {
            have.push((i, s.as_slice()));
        }
        for (j, p) in parity.iter().enumerate() {
            have.push((4 + j, p.as_slice()));
        }
        assert_eq!(decode(4, &have).unwrap(), data);
    }
}
