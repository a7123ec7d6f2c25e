//! File-level workflow: write a corpus + tables to disk the way the CLI
//! expects, train through `Kgpip::train` from those files, persist the
//! artifact as a `KGPS` snapshot, reopen it, check the reopened model
//! predicts identically on several datasets, and run on a CSV dataset —
//! the full downstream-user path without spawning a subprocess.

use kgpip::{Kgpip, KgpipConfig, TrainedModel};
use kgpip_benchdata::{benchmark, generate_dataset, training_setup, ScaleConfig};
use kgpip_codegraph::corpus::{generate_corpus, CorpusConfig, ScriptRecord};
use kgpip_graphgen::GeneratorConfig;
use kgpip_hpo::{Flaml, Optimizer, TimeBudget};
use kgpip_tabular::{csv, Dataset};
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("kgpip_cli_files_test").join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn csv_on_disk_roundtrip_feeds_training_and_prediction() {
    let scale = ScaleConfig {
        max_rows: 120,
        max_cols: 6,
    };
    let setup = training_setup(1, &scale, 3);
    let scripts = generate_corpus(
        &setup.profiles,
        &CorpusConfig {
            scripts_per_dataset: 5,
            unsupported_fraction: 0.0,
            ..CorpusConfig::default()
        },
    );

    // Materialize scripts and tables as the CLI's directory layout.
    let scripts_dir = scratch_dir("scripts");
    let tables_dir = scratch_dir("tables");
    for (i, record) in scripts.iter().enumerate() {
        let ds_dir = scripts_dir.join(&record.dataset);
        std::fs::create_dir_all(&ds_dir).unwrap();
        std::fs::write(ds_dir.join(format!("nb_{i}.py")), &record.source).unwrap();
    }
    for (name, table) in &setup.tables {
        std::fs::write(
            tables_dir.join(format!("{name}.csv")),
            csv::write_csv(table),
        )
        .unwrap();
    }

    // Read everything back through the file layer.
    let mut scripts_back = Vec::new();
    for entry in std::fs::read_dir(&scripts_dir).unwrap() {
        let entry = entry.unwrap();
        let dataset = entry.file_name().to_string_lossy().to_string();
        for file in std::fs::read_dir(entry.path()).unwrap() {
            let source = std::fs::read_to_string(file.unwrap().path()).unwrap();
            scripts_back.push(ScriptRecord {
                dataset: dataset.clone(),
                source,
            });
        }
    }
    let mut tables_back = Vec::new();
    for entry in std::fs::read_dir(&tables_dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_stem().unwrap().to_string_lossy().to_string();
        let frame = csv::read_frame(&std::fs::read_to_string(&path).unwrap()).unwrap();
        tables_back.push((name, frame));
    }
    assert_eq!(scripts_back.len(), scripts.len());
    assert_eq!(tables_back.len(), setup.tables.len());

    // Train from the file-loaded corpus, persist, reload, run on a CSV.
    let model = Kgpip::train(
        &scripts_back,
        &tables_back,
        KgpipConfig::default().with_generator(GeneratorConfig {
            hidden: 8,
            prop_rounds: 1,
            epochs: 2,
            ..GeneratorConfig::default()
        }),
    )
    .unwrap();
    let model_path = scratch_dir("model").join("model.kgps");
    model.artifact().snapshot(&model_path).unwrap();
    let reopened = TrainedModel::open(&model_path).unwrap();
    assert_eq!(reopened.catalog_len(), model.artifact().catalog_len());

    // The reload keeps predictions identical — neighbour, skeletons and
    // score bits — on several datasets.
    let caps = Flaml::new(0).capabilities();
    for entry in benchmark().iter().take(5) {
        let ds = generate_dataset(entry, &scale, entry.id as u64);
        let (a, na) = model.predict_skeletons(&ds, 3, &caps, 42).unwrap();
        let (b, nb) = reopened.predict_skeletons(&ds, 3, &caps, 42).unwrap();
        assert_eq!(na, nb, "{}: neighbour must survive the reload", entry.name);
        assert_eq!(a.len(), b.len(), "{}", entry.name);
        for ((s1, g1), (s2, g2)) in a.iter().zip(&b) {
            assert_eq!(s1, s2, "{}", entry.name);
            assert_eq!(g1.to_bits(), g2.to_bits(), "{}", entry.name);
        }
    }
    let model = reopened;

    // An "unseen" CSV with a target column, as a user would provide.
    let mut csv_text = String::from("f0,f1,label\n");
    for i in 0..160 {
        let a = (i % 10) as f64;
        let b = ((i * 3) % 10) as f64;
        let label = u8::from((a > 4.5) != (b > 4.5));
        csv_text.push_str(&format!("{a},{b},{label}\n"));
    }
    let data_path = scratch_dir("data").join("unseen.csv");
    std::fs::write(&data_path, &csv_text).unwrap();
    let frame = csv::read_frame(&std::fs::read_to_string(&data_path).unwrap()).unwrap();
    let ds = Dataset::from_frame("unseen", frame, "label").unwrap();

    let mut backend = Flaml::new(0);
    let run = model
        .run(
            &ds,
            &mut backend,
            TimeBudget::seconds(2.0).with_trial_cap(20),
        )
        .unwrap();
    assert!(run.best_score() > 0.5, "score {}", run.best_score());

    std::fs::remove_dir_all(std::env::temp_dir().join("kgpip_cli_files_test")).ok();
}
