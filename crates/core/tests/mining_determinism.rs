//! Parallel mining and the MiningCache may only change what training
//! *costs*, never what it produces: the assembled Graph4ML, the stats,
//! and the generator's training trajectory must be bit-for-bit
//! identical at any worker count, with a cold or a warm cache, and
//! whether the cache came from this process or from a serialized
//! snapshot.

use kgpip::{Kgpip, KgpipConfig, MiningCache};
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, DatasetProfile, ScriptRecord};
use kgpip_graphgen::GeneratorConfig;
use kgpip_tabular::{Column, DataFrame};

fn table(offset: f64) -> DataFrame {
    DataFrame::from_columns(vec![
        (
            "a".to_string(),
            Column::from_f64((0..20).map(|i| offset + i as f64).collect::<Vec<_>>()),
        ),
        (
            "target".to_string(),
            Column::from_f64((0..20).map(|i| (i % 2) as f64).collect::<Vec<_>>()),
        ),
    ])
    .unwrap()
}

/// Three-dataset corpus with malformed and helper-wrapped scripts, but
/// only two tables in the catalog — so every skip path (unknown
/// dataset, unparsable, no skeleton) is exercised.
fn setup() -> (Vec<ScriptRecord>, Vec<(String, DataFrame)>) {
    let profiles = vec![
        DatasetProfile::new("alpha", false),
        DatasetProfile::new("beta", false),
        DatasetProfile::new("gamma", false),
    ];
    let scripts = generate_corpus(
        &profiles,
        &CorpusConfig {
            scripts_per_dataset: 8,
            unsupported_fraction: 0.2,
            helper_fraction: 0.25,
            malformed_fraction: 0.1,
            ..CorpusConfig::default()
        },
    );
    let tables = vec![
        ("alpha".to_string(), table(0.0)),
        ("beta".to_string(), table(100.0)),
    ];
    (scripts, tables)
}

fn config(parallelism: usize) -> KgpipConfig {
    KgpipConfig {
        generator: GeneratorConfig {
            hidden: 8,
            prop_rounds: 1,
            epochs: 2,
            ..GeneratorConfig::default()
        },
        parallelism,
        ..KgpipConfig::default()
    }
}

/// Everything a training run produces, minus wall-clock timings (the
/// only fields allowed to differ between runs).
fn fingerprint(model: &Kgpip) -> (String, Vec<u32>, Vec<u64>) {
    let graph = serde_json::to_string(model.graph4ml()).expect("graph4ml serializes");
    let losses: Vec<u32> = model
        .stats()
        .epoch_losses
        .iter()
        .map(|l| l.to_bits())
        .collect();
    let s = model.stats();
    let counters = vec![
        s.scripts as u64,
        s.valid_pipelines as u64,
        s.unparsable as u64,
        s.skipped_unknown_dataset as u64,
        s.datasets as u64,
        s.total_nodes as u64,
        s.total_edges as u64,
    ];
    (graph, losses, counters)
}

#[test]
fn parallel_mining_is_bit_identical_across_worker_counts() {
    let (scripts, tables) = setup();
    let baseline = Kgpip::train(&scripts, &tables, config(1)).unwrap();
    let base = fingerprint(&baseline);
    for parallelism in [2usize, 4] {
        let model = Kgpip::train(&scripts, &tables, config(parallelism)).unwrap();
        assert_eq!(
            fingerprint(&model),
            base,
            "parallelism {parallelism} diverged from the sequential path"
        );
        assert_eq!(
            model.stats().mining_cache_hits,
            baseline.stats().mining_cache_hits,
            "cache counters must not depend on worker count"
        );
        assert_eq!(
            model.stats().mining_cache_misses,
            baseline.stats().mining_cache_misses
        );
    }
}

#[test]
fn warm_cache_rerun_is_bit_identical_and_skips_analysis() {
    let (scripts, tables) = setup();
    let cache = MiningCache::default();
    let cold = Kgpip::train_with_cache(&scripts, &tables, config(2), &cache).unwrap();
    let warm = Kgpip::train_with_cache(&scripts, &tables, config(2), &cache).unwrap();
    assert_eq!(fingerprint(&cold), fingerprint(&warm));

    let eligible = (cold.stats().scripts - cold.stats().skipped_unknown_dataset) as u64;
    assert!(cold.stats().mining_cache_misses > 0, "cold run analyzes");
    assert_eq!(
        warm.stats().mining_cache_hits,
        eligible,
        "warm run serves every eligible script from the cache"
    );
    assert_eq!(warm.stats().mining_cache_misses, 0);
}

#[test]
fn persisted_cache_stays_warm_across_restore() {
    let (scripts, tables) = setup();
    let cache = MiningCache::default();
    let cold = Kgpip::train_with_cache(&scripts, &tables, config(1), &cache).unwrap();
    let json = cache.to_json().unwrap();
    let restored = MiningCache::from_json(&json).unwrap();
    let warm = Kgpip::train_with_cache(&scripts, &tables, config(4), &restored).unwrap();
    assert_eq!(fingerprint(&cold), fingerprint(&warm));
    assert_eq!(
        warm.stats().mining_cache_misses,
        0,
        "a restored snapshot must be as warm as the original cache"
    );
}

#[test]
fn zero_parallelism_is_clamped_to_sequential() {
    let (scripts, tables) = setup();
    // Direct construction bypasses the builder's `.max(1)` clamp.
    let zero = Kgpip::train(&scripts, &tables, config(0)).unwrap();
    let one = Kgpip::train(&scripts, &tables, config(1)).unwrap();
    assert_eq!(fingerprint(&zero), fingerprint(&one));
}

#[test]
fn unknown_dataset_scripts_are_counted_not_silently_dropped() {
    let (scripts, tables) = setup();
    let model = Kgpip::train(&scripts, &tables, config(1)).unwrap();
    let stats = model.stats();
    assert_eq!(
        stats.skipped_unknown_dataset, 8,
        "all gamma scripts reference a dataset with no table"
    );
    assert_eq!(stats.datasets, 2);
    assert!(stats.embedding_secs >= 0.0 && stats.mining_secs >= 0.0);
}
