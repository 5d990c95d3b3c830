//! Property-based tests for the cryptographic substrate.

use gkap_bignum::{SplitMix64, Ubig};
use gkap_crypto::aes::{ctr_xor, Aes128};
use gkap_crypto::dh::DhGroup;
use gkap_crypto::hmac::{ct_eq, hmac_sha256};
use gkap_crypto::kdf::derive;
use gkap_crypto::rsa::RsaPrivateKey;
use gkap_crypto::sha::{Digest, Sha256};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_streaming_equivalence(data in proptest::collection::vec(any::<u8>(), 0..512),
                                    split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn hmac_keys_and_messages_separate(k1 in proptest::collection::vec(any::<u8>(), 1..100),
                                       m1 in proptest::collection::vec(any::<u8>(), 0..100)) {
        let mut k2 = k1.clone();
        k2[0] ^= 1;
        let mut m2 = m1.clone();
        m2.push(0);
        prop_assert_ne!(hmac_sha256(&k1, &m1), hmac_sha256(&k2, &m1));
        prop_assert_ne!(hmac_sha256(&k1, &m1), hmac_sha256(&k1, &m2));
    }

    #[test]
    fn ct_eq_agrees_with_eq(a in proptest::collection::vec(any::<u8>(), 0..64),
                            b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }

    #[test]
    fn ctr_is_an_involution(key in any::<[u8; 16]>(), nonce in any::<[u8; 12]>(),
                            ctr in any::<u32>(),
                            msg in proptest::collection::vec(any::<u8>(), 0..300)) {
        let ct = ctr_xor(&key, &nonce, ctr, msg.clone());
        prop_assert_eq!(ctr_xor(&key, &nonce, ctr, ct), msg);
    }

    #[test]
    fn ctr_apply_in_place_matches_ctr_xor(key in any::<[u8; 16]>(), nonce in any::<[u8; 12]>(),
                                          ctr in any::<u32>(),
                                          msg in proptest::collection::vec(any::<u8>(), 0..=100)) {
        let aes = Aes128::new(&key);
        let mut in_place = msg.clone();
        aes.ctr_apply(&nonce, ctr, &mut in_place);
        prop_assert_eq!(&in_place, &ctr_xor(&key, &nonce, ctr, msg.clone()));
        // Both agree with the keystream built block by block.
        let mut counter_block = [0u8; 16];
        counter_block[..12].copy_from_slice(&nonce);
        let expected: Vec<u8> = msg
            .chunks(16)
            .zip(0u32..)
            .flat_map(|(chunk, i)| {
                counter_block[12..].copy_from_slice(&ctr.wrapping_add(i).to_be_bytes());
                let ks = aes.encrypt_block(&counter_block);
                chunk.iter().zip(ks).map(|(m, k)| m ^ k).collect::<Vec<u8>>()
            })
            .collect();
        prop_assert_eq!(in_place, expected);
    }

    #[test]
    fn kdf_deterministic_prefix(secret in any::<u64>(), l1 in 0usize..64, l2 in 0usize..64) {
        let s = Ubig::from(secret);
        let (short, long) = (l1.min(l2), l1.max(l2));
        let a = derive(&s, b"label", short);
        let b = derive(&s, b"label", long);
        prop_assert_eq!(&a[..], &b[..short]);
    }

    #[test]
    fn group_dh_three_party_associativity(seed in any::<u64>()) {
        // (g^a)^bc == (g^b)^ac == (g^c)^ab — the algebraic heart of GDH.
        let group = DhGroup::test_256();
        let mut rng = SplitMix64::new(seed);
        let a = group.random_exponent(&mut rng);
        let b = group.random_exponent(&mut rng);
        let c = group.random_exponent(&mut rng);
        let gab = group.exp(&group.exp_g(&a), &b);
        let gbc = group.exp(&group.exp_g(&b), &c);
        let gac = group.exp(&group.exp_g(&a), &c);
        let k1 = group.exp(&gab, &c);
        let k2 = group.exp(&gbc, &a);
        let k3 = group.exp(&gac, &b);
        prop_assert_eq!(&k1, &k2);
        prop_assert_eq!(&k1, &k3);
    }
}

#[test]
fn rsa_sign_verify_across_key_sizes() {
    let mut rng = SplitMix64::new(1234);
    for (bits, e) in [(512usize, 3u64), (768, 3), (512, 65537)] {
        let key = RsaPrivateKey::generate(bits, e, &mut rng);
        assert_eq!(key.public_key().bits(), bits);
        let msg = format!("msg for {bits}/{e}");
        let sig = key.sign(msg.as_bytes());
        key.public_key().verify(msg.as_bytes(), &sig).unwrap();
        assert!(key.public_key().verify(b"other", &sig).is_err());
    }
}

#[test]
fn rsa_1024_e3_matches_paper_configuration() {
    // The paper's exact signing configuration: 1024-bit modulus, e = 3.
    let mut rng = SplitMix64::new(77);
    let key = RsaPrivateKey::generate(1024, 3, &mut rng);
    assert_eq!(key.public_key().bits(), 1024);
    assert_eq!(key.public_key().exponent(), &Ubig::from(3u64));
    let sig = key.sign(b"protocol message");
    assert_eq!(sig.len(), 128);
    key.public_key().verify(b"protocol message", &sig).unwrap();
}

#[test]
fn dh_512_and_1024_full_exchange() {
    // The paper's two parameter sizes, exercised end to end.
    for group in [DhGroup::modp_512(), DhGroup::modp_1024()] {
        let mut rng = SplitMix64::new(5);
        let a = group.generate_keypair(&mut rng);
        let b = group.generate_keypair(&mut rng);
        group.validate_public(&a.public().0).unwrap();
        let k1 = group.shared_secret(&a, b.public());
        let k2 = group.shared_secret(&b, a.public());
        assert_eq!(k1, k2, "{}", group.name());
        // Derived session keys agree as well.
        use gkap_crypto::kdf::SessionKeys;
        assert_eq!(
            SessionKeys::from_group_secret(&k1),
            SessionKeys::from_group_secret(&k2)
        );
    }
}
