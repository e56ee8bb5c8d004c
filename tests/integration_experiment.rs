//! Integration tests of the Fig. 3 experiment harness (smoke-scale) and of
//! the qualitative claims the figure supports.

use mfod::experiment::{format_fig3, load_ucr_pair, run_fig3, run_fig3_on, Fig3Config};
use mfod::prelude::*;

#[test]
fn smoke_experiment_runs_and_reports() {
    let cfg = Fig3Config::smoke();
    let rows = run_fig3(&cfg).unwrap();
    assert_eq!(rows.len(), cfg.contamination_levels.len());
    for row in &rows {
        for m in ["iFor(Curvmap)", "OCSVM(Curvmap)", "FUNTA", "Dir.out"] {
            let s = row.summary.get(m).unwrap();
            assert!((0.0..=1.0).contains(&s.mean), "{m}: {}", s.mean);
            assert_eq!(s.values.len(), cfg.repetitions);
        }
    }
    let table = format_fig3(&rows);
    assert!(table.contains("AUC vs. contamination level"));
}

#[test]
fn experiment_is_reproducible() {
    let cfg = Fig3Config::smoke();
    let a = run_fig3(&cfg).unwrap();
    let b = run_fig3(&cfg).unwrap();
    for (ra, rb) in a.iter().zip(&b) {
        for m in ["iFor(Curvmap)", "FUNTA"] {
            assert_eq!(
                ra.summary.get(m).unwrap().values,
                rb.summary.get(m).unwrap().values,
                "method {m} not reproducible"
            );
        }
    }
}

/// A two-repetition, one-level Fig. 3 for 60 short beats.
fn small_external_cfg() -> Fig3Config {
    Fig3Config {
        contamination_levels: vec![0.10],
        repetitions: 2,
        train_size: 30,
        pipeline: PipelineConfig {
            selector: BasisSelector {
                sizes: vec![10],
                lambdas: vec![1e-2],
                ..Default::default()
            },
            grid_len: 30,
            ..Default::default()
        },
        nu_tuner: NuTuner {
            folds: 3,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// 40 normal + 20 abnormal simulated beats of length 30, one channel.
fn short_beats() -> LabeledDataSet {
    EcgSimulator::new(EcgConfig {
        m: 30,
        ..Default::default()
    })
    .unwrap()
    .generate(40, 20, 5)
    .unwrap()
}

#[test]
fn external_data_entrypoint() {
    // run_fig3_on accepts pre-built (e.g. real ECG200) data.
    let data = short_beats().augment_with(0, |y| y * y).unwrap();
    let rows = run_fig3_on(&small_external_cfg(), &data).unwrap();
    assert_eq!(rows.len(), 1);
}

/// A UCR-format train/test pair written from the simulator pools back to
/// the augmented beats bit for bit, so Fig. 3 on the pair is Fig. 3 on
/// the beats.
#[test]
fn ucr_pair_reruns_fig3_on_the_pooled_files() {
    let beats = short_beats();
    let dir = std::env::temp_dir().join(format!("mfod-it-ucr-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, range: std::ops::Range<usize>| {
        let lines: Vec<String> = range
            .map(|i| {
                let (sample, outlier) = beats.get(i).unwrap();
                let mut line = String::from(if outlier { "-1" } else { "1" });
                for v in &sample.channels[0] {
                    line.push_str(&format!("\t{v}"));
                }
                line
            })
            .collect();
        let path = dir.join(name);
        std::fs::write(&path, lines.join("\n")).unwrap();
        path
    };
    let train = write("BEATS_TRAIN.tsv", 0..25);
    let test = write("BEATS_TEST.tsv", 25..beats.len());
    let pooled = load_ucr_pair(&train, &test).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let data = beats.augment_with(0, |y| y * y).unwrap();
    assert_eq!(pooled.labels(), data.labels());
    let bits = |d: &LabeledDataSet| -> Vec<u64> {
        d.samples()
            .iter()
            .flat_map(|s| s.t.iter().chain(s.channels.iter().flatten()))
            .map(|v| v.to_bits())
            .collect()
    };
    assert_eq!(bits(&pooled), bits(&data));

    let cfg = small_external_cfg();
    let (from_files, from_beats) = (
        run_fig3_on(&cfg, &pooled).unwrap(),
        run_fig3_on(&cfg, &data).unwrap(),
    );
    assert_eq!(format_fig3(&from_files), format_fig3(&from_beats));
    for (a, b) in from_files.iter().zip(&from_beats) {
        for (x, y) in a.summary.methods.iter().zip(&b.summary.methods) {
            assert_eq!(
                (x.mean.to_bits(), x.std.to_bits()),
                (y.mean.to_bits(), y.std.to_bits())
            );
        }
    }
}

#[test]
fn geometric_methods_competitive_at_moderate_scale() {
    // A mid-size run (not the full 50 reps) checking the figure's key
    // qualitative content: the curvature pipeline is competitive with the
    // best depth baseline and clearly better than FUNTA.
    let cfg = Fig3Config {
        contamination_levels: vec![0.10],
        repetitions: 4,
        train_size: 60,
        n_normal: 80,
        n_abnormal: 40,
        ecg: EcgConfig {
            m: 60,
            ..Default::default()
        },
        pipeline: PipelineConfig {
            selector: BasisSelector {
                sizes: vec![14],
                lambdas: vec![1e-2],
                ..Default::default()
            },
            grid_len: 60,
            ..Default::default()
        },
        nu_tuner: NuTuner {
            folds: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let rows = run_fig3(&cfg).unwrap();
    let s = &rows[0].summary;
    let ifor = s.get("iFor(Curvmap)").unwrap().mean;
    let funta = s.get("FUNTA").unwrap().mean;
    let dirout = s.get("Dir.out").unwrap().mean;
    assert!(ifor > funta, "iFor(Curvmap) {ifor} must beat FUNTA {funta}");
    assert!(
        ifor > dirout - 0.08,
        "iFor(Curvmap) {ifor} vs Dir.out {dirout}"
    );
    assert!(ifor > 0.85, "iFor(Curvmap) {ifor}");
}

#[test]
fn invalid_configs_rejected() {
    let mut cfg = Fig3Config::smoke();
    cfg.contamination_levels = vec![1.5];
    assert!(run_fig3(&cfg).is_err());
    let mut cfg = Fig3Config::smoke();
    cfg.repetitions = 0;
    assert!(run_fig3(&cfg).is_err());
    let mut cfg = Fig3Config::smoke();
    cfg.train_size = 10_000;
    assert!(run_fig3(&cfg).is_err());
}
