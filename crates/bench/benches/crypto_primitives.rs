//! Criterion benchmarks of the real cryptographic primitives — the
//! host-machine analogue of the paper's platform calibration (§6.1.1:
//! per-exponentiation and RSA sign/verify costs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gkap_bignum::{prime, Montgomery, RandomSource, SplitMix64, Ubig};
use gkap_crypto::aes::ctr_xor;
use gkap_crypto::dh::DhGroup;
use gkap_crypto::hmac::hmac_sha256;
use gkap_crypto::rsa::RsaPrivateKey;
use gkap_crypto::sha::{Digest, Sha1, Sha256};

fn bench_modexp(c: &mut Criterion) {
    let mut group = c.benchmark_group("modexp");
    for (label, dh) in [
        ("512", DhGroup::modp_512()),
        ("768", DhGroup::modp_768()),
        ("1024", DhGroup::modp_1024()),
        ("2048", DhGroup::modp_2048()),
    ] {
        let mut rng = SplitMix64::new(42);
        let e = dh.random_exponent(&mut rng);
        group.bench_function(BenchmarkId::new("g^x mod p", label), |b| {
            b.iter(|| std::hint::black_box(dh.exp_g(&e)))
        });
    }
    group.finish();
}

/// The dedicated squaring kernel against general multiplication: the
/// ~n²/2 partial-product saving should show as a 1.2–1.5× win. 512 and
/// 1024 bits run the fixed-width stack kernels, 768 and 2048 the slice
/// kernels, so the step between the two shows between neighbours.
fn bench_mont_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("mont_kernel");
    for bits in [512usize, 768, 1024, 2048] {
        let mut rng = SplitMix64::new(11);
        let mut m = rng.next_ubig_exact_bits(bits);
        m.set_bit(0, true); // Montgomery needs an odd modulus
        let ctx = Montgomery::new(&m).expect("odd modulus");
        let a = ctx.to_mont(&rng.next_ubig_exact_bits(bits - 1));
        let b_elem = ctx.to_mont(&rng.next_ubig_exact_bits(bits - 1));
        let mut out = a.clone();
        let mut scratch = ctx.scratch();
        group.bench_function(BenchmarkId::new("mont_mul", bits), |b| {
            b.iter(|| ctx.mont_mul(&a, &b_elem, &mut out, &mut scratch))
        });
        group.bench_function(BenchmarkId::new("mont_sqr", bits), |b| {
            b.iter(|| ctx.mont_sqr(&a, &mut out, &mut scratch))
        });
    }
    group.finish();
}

/// Fixed-base `g^x` (precomputed window table, no squarings) against
/// the variable-base sliding-window ladder.
fn bench_fixed_base(c: &mut Criterion) {
    let mut group = c.benchmark_group("exp_g");
    for (label, dh) in [
        ("512", DhGroup::modp_512()),
        ("1024", DhGroup::modp_1024()),
        ("2048", DhGroup::modp_2048()),
    ] {
        let mut rng = SplitMix64::new(42);
        let e = dh.random_exponent(&mut rng);
        group.bench_function(BenchmarkId::new("variable_base", label), |b| {
            b.iter(|| std::hint::black_box(dh.exp(dh.generator(), &e)))
        });
        group.bench_function(BenchmarkId::new("fixed_base", label), |b| {
            b.iter(|| std::hint::black_box(dh.exp_g(&e)))
        });
    }
    group.finish();
}

fn bench_rsa(c: &mut Criterion) {
    let mut rng = SplitMix64::new(7);
    let key = RsaPrivateKey::generate(1024, 3, &mut rng);
    let msg = b"group key agreement protocol message";
    let sig = key.sign(msg);
    c.bench_function("rsa1024_sign_crt", |b| {
        b.iter(|| std::hint::black_box(key.sign(msg)))
    });
    c.bench_function("rsa1024_verify_e3", |b| {
        b.iter(|| key.public_key().verify(msg, &sig).expect("verifies"))
    });
}

fn bench_hashes(c: &mut Criterion) {
    let data = vec![0xa5u8; 4096];
    c.bench_function("sha256_4k", |b| {
        b.iter(|| std::hint::black_box(Sha256::digest(&data)))
    });
    c.bench_function("sha1_4k", |b| {
        b.iter(|| std::hint::black_box(Sha1::digest(&data)))
    });
    c.bench_function("hmac_sha256_4k", |b| {
        b.iter(|| std::hint::black_box(hmac_sha256(b"key", &data)))
    });
}

fn bench_aes(c: &mut Criterion) {
    let key = [7u8; 16];
    let nonce = [9u8; 12];
    let data = vec![0x5au8; 4096];
    c.bench_function("aes128_ctr_4k", |b| {
        b.iter(|| std::hint::black_box(ctr_xor(&key, &nonce, 0, data.clone())))
    });
}

fn bench_primality(c: &mut Criterion) {
    let mut rng = SplitMix64::new(3);
    let p256 = prime::random_prime(256, &mut rng);
    c.bench_function("miller_rabin_256bit_prime", |b| {
        let mut r = SplitMix64::new(4);
        b.iter(|| assert!(prime::is_prime(&p256, &mut r)))
    });
}

fn bench_bignum(c: &mut Criterion) {
    let mut rng = SplitMix64::new(5);
    let a = rng.next_ubig_exact_bits(2048);
    let b_ = rng.next_ubig_exact_bits(2048);
    let m = rng.next_ubig_exact_bits(1024);
    c.bench_function("ubig_mul_2048x2048", |bch| {
        bch.iter(|| std::hint::black_box(&a * &b_))
    });
    c.bench_function("ubig_divrem_4096/1024", |bch| {
        let prod = &a * &b_;
        bch.iter(|| std::hint::black_box(prod.div_rem(&m)))
    });
    // Odd moduli: the binary extended GCD, as the protocols' inverses
    // mod p and mod q run it.
    for bits in [256usize, 1024] {
        let mut m = rng.next_ubig_exact_bits(bits);
        m.set_bit(0, true);
        let a = rng.next_ubig_in_range(&m);
        c.bench_function(format!("mod_inverse_{bits}"), |bch| {
            bch.iter(|| std::hint::black_box(a.mod_inverse(&m)))
        });
    }
    let _ = Ubig::zero();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_modexp, bench_mont_kernels, bench_fixed_base, bench_rsa, bench_hashes,
        bench_aes, bench_primality, bench_bignum
}
criterion_main!(benches);
