//! Hostile manifests: `Manifest::parse` answers `Ok` or `Err` for any
//! mutation of the committed baselines and never panics, and what it
//! accepts renders to JSON that parses back to the same manifest.

use gkap_bench::manifest::Manifest;

#[path = "../../gcs/tests/support/mutate.rs"]
mod mutate;

#[test]
fn a_mutated_baseline_parses_or_is_refused() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/baselines");
    let mut seeds: Vec<Vec<u8>> = std::fs::read_dir(dir)
        .expect("results/baselines")
        .map(|entry| std::fs::read(entry.expect("entry").path()).expect("baseline"))
        .collect();
    // `read_dir`'s order is the file system's: sort for one mutant stream.
    seeds.sort();
    assert!(!seeds.is_empty(), "the committed baselines");
    let mut accepted = 0;
    for (i, bytes) in mutate::mutants(&seeds, 3_000).iter().enumerate() {
        let Ok(once) = Manifest::parse(&String::from_utf8_lossy(bytes)) else {
            continue;
        };
        accepted += 1;
        let twice = Manifest::parse(&once.to_json());
        assert_eq!(twice.as_ref(), Ok(&once), "mutant {i}");
    }
    assert!(accepted > 0, "some mutants are still manifests");
}
