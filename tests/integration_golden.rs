//! The Fig. 3 science pins, checked in tier-1. For each of the eight data
//! variants, under the two-repetition ("full") and the smoke
//! configuration, every AUC bit pattern and every Dir.out direction
//! budget that `run_fig3_on` produces must match
//! `perfledger/golden/fig3.txt` line for line. The data are built
//! exactly as the perfledger builds them. The test only reads the file:
//! a change meant to move results regenerates it with
//! `perfledger --write-golden <path>`.

use mfod::datasets::EcgSimulator;
use mfod::experiment::{run_fig3_on, Fig3Config};
use std::collections::BTreeMap;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/perfledger/golden/fig3.txt");

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
    let text = std::fs::read_to_string(GOLDEN).unwrap_or_else(|e| panic!("{GOLDEN}: {e}"));
    let mut golden: BTreeMap<(String, u64), Vec<String>> = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let mut fields = line.split_whitespace();
        let config = fields.next().expect("config field").to_string();
        let variant = fields.next().and_then(|v| v.parse().ok());
        let variant = variant.unwrap_or_else(|| panic!("malformed golden line: {line}"));
        golden
            .entry((config, variant))
            .or_default()
            .push(line.to_string());
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
