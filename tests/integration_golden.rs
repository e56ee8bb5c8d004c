//! The science pins, checked in tier-1.
//!
//! * Fig. 3: for each of the eight data variants, under the
//!   two-repetition ("full") and the smoke configuration, every AUC bit
//!   pattern and every Dir.out direction budget that `run_fig3_on`
//!   produces must match `perfledger/golden/fig3.txt` line for line. The
//!   data are built exactly as the perfledger builds them. A change meant
//!   to move results regenerates the file with
//!   `perfledger --write-golden <path>`.
//! * Mappings: every shipped mapping's raw feature rows on a small ECG
//!   batch must hash to the values in `tests/golden/mappings.txt`.
//!
//! Both tests only read their files.

use mfod::datasets::{EcgConfig, EcgSimulator};
use mfod::detect::IsolationForest;
use mfod::experiment::{run_fig3_on, Fig3Config};
use mfod::geometry::prelude::*;
use mfod::linalg::par::Pool;
use mfod::persist::hash_f64s;
use mfod::{GeomOutlierPipeline, PipelineConfig};
use std::collections::BTreeMap;
use std::sync::Arc;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/perfledger/golden/fig3.txt");
const MAPPINGS_GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/mappings.txt");

/// Data variants pinned per configuration; variant `v` draws its beats
/// from seed `2020 + v`.
const VARIANTS: u64 = 8;

/// One table in the golden file's line format:
/// `<config> <variant> <level> auc <method> <hex AUC bits per repetition>`
/// per method, then `<config> <variant> <level> dirout <degenerate> <attempted>`.
fn table_lines(config: &str, cfg: &Fig3Config, variant: u64) -> Vec<String> {
    let data = EcgSimulator::new(cfg.ecg.clone())
        .and_then(|sim| sim.generate(cfg.n_normal, cfg.n_abnormal, 2020 + variant))
        .and_then(|d| d.augment_with(0, |y| y * y))
        .unwrap();
    let mut lines = Vec::new();
    for row in run_fig3_on(cfg, &data).unwrap() {
        let level = format!("{:.2}", row.contamination);
        for m in &row.summary.methods {
            let bits: Vec<String> = m
                .values
                .iter()
                .map(|v| format!("{:016x}", v.to_bits()))
                .collect();
            lines.push(format!(
                "{config} {variant} {level} auc {} {}",
                m.method,
                bits.join(" ")
            ));
        }
        lines.push(format!(
            "{config} {variant} {level} dirout {} {}",
            row.dirout_degenerate, row.dirout_direction_budget
        ));
    }
    lines
}

#[test]
fn fig3_tables_match_the_golden_bits() {
    let mut golden: BTreeMap<(String, u64), Vec<String>> = BTreeMap::new();
    for line in golden_lines(GOLDEN) {
        let mut fields = line.split_whitespace();
        let config = fields.next().expect("config field").to_string();
        let variant = fields.next().and_then(|v| v.parse().ok());
        let variant = variant.unwrap_or_else(|| panic!("malformed golden line: {line}"));
        golden.entry((config, variant)).or_default().push(line);
    }

    let configs = [
        (
            "full",
            Fig3Config {
                repetitions: 2,
                ..Default::default()
            },
        ),
        ("smoke", Fig3Config::smoke()),
    ];
    for (config, cfg) in &configs {
        for variant in 0..VARIANTS {
            let mut want = golden
                .remove(&(config.to_string(), variant))
                .unwrap_or_else(|| panic!("the golden file has no {config} table {variant}"));
            let mut got = table_lines(config, cfg, variant);
            want.sort();
            got.sort();
            if got != want {
                let missing: Vec<&String> = want.iter().filter(|l| !got.contains(l)).collect();
                let extra: Vec<&String> = got.iter().filter(|l| !want.contains(l)).collect();
                panic!(
                    "{config} table {variant} differs from the golden file\n\
                     golden lines not reproduced: {missing:#?}\n\
                     lines the golden file lacks: {extra:#?}"
                );
            }
        }
    }
    assert!(
        golden.is_empty(),
        "golden tables no configuration checks: {:?}",
        golden.keys().collect::<Vec<_>>()
    );
}

/// The golden file's lines without its `#` comments.
fn golden_lines(path: &str) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(str::to_string)
        .collect()
}

#[test]
fn mapped_features_match_the_golden_bits() {
    let ecg = EcgSimulator::new(EcgConfig::default())
        .and_then(|sim| sim.generate(6, 2, 2028))
        .unwrap();
    let planar = ecg.augment_with(0, |y| y * y).unwrap();
    let spatial = planar.augment_with(0, |y| y * y * y).unwrap();
    // the ten mapping types, plus the component control at orders 0 and 2
    let mappings: Vec<(&str, Arc<dyn MappingFunction>)> = vec![
        ("curvature", Arc::new(Curvature)),
        ("curvature-eq5", Arc::new(CurvatureEq5)),
        ("radius-of-curvature", Arc::new(RadiusOfCurvature)),
        ("speed", Arc::new(Speed)),
        ("log-speed", Arc::new(LogSpeed)),
        ("arc-length", Arc::new(ArcLength)),
        ("acceleration", Arc::new(Acceleration)),
        ("srvf-norm", Arc::new(SrvfNorm)),
        ("turning-angle", Arc::new(TurningAngle)),
        ("torsion", Arc::new(Torsion)),
        ("component-0-0", Arc::new(ComponentMapping::value(0))),
        (
            "component-1-2",
            Arc::new(ComponentMapping::derivative(1, 2)),
        ),
    ];
    let pool = Pool::with_threads(1);
    let mut got = Vec::new();
    for (label, mapping) in mappings {
        let data = if label == "torsion" {
            &spatial
        } else {
            &planar
        };
        let pipeline = GeomOutlierPipeline::new(
            PipelineConfig::default(),
            mapping,
            Arc::new(IsolationForest::default()),
        );
        let rows = pipeline.raw_features_on(&pool, data.samples()).unwrap();
        for i in 0..rows.nrows() {
            got.push(format!("{label} {i} {:016x}", hash_f64s(rows.row(i))));
        }
    }
    let want = golden_lines(MAPPINGS_GOLDEN);
    let missing: Vec<&String> = want.iter().filter(|l| !got.contains(l)).collect();
    let extra: Vec<&String> = got.iter().filter(|l| !want.contains(l)).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "mapped features differ from {MAPPINGS_GOLDEN}\n\
         golden lines not reproduced: {missing:#?}\n\
         lines the golden file lacks: {extra:#?}"
    );
}
