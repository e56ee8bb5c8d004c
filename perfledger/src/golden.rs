//! The pinned Fig. 3 result: per-repetition AUC bit patterns for every
//! method and contamination level, plus the Dir.out direction budget, for
//! each data variant of each configuration. Every untraced table and
//! every traced replay is compared against it bit for bit.
//!
//! File format (`golden/fig3.txt`), one fact per line:
//!
//! ```text
//! <config> <variant> <level> auc <method> <hex bits of rep 0> <rep 1> …
//! <config> <variant> <level> dirout <degenerate> <attempted>
//! ```

use mfod::experiment::Fig3Row;
use std::collections::BTreeMap;

pub const GOLDEN: &str = include_str!("../golden/fig3.txt");

/// One contamination level of a Fig. 3 table.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    pub contamination: f64,
    /// Method → AUC bit pattern per repetition.
    pub aucs: BTreeMap<String, Vec<u64>>,
    pub dirout_degenerate: usize,
    pub dirout_attempted: usize,
}

pub type Table = Vec<Level>;

pub fn from_rows(rows: &[Fig3Row]) -> Table {
    rows.iter()
        .map(|row| Level {
            contamination: row.contamination,
            aucs: row
                .summary
                .methods
                .iter()
                .map(|m| {
                    (
                        m.method.clone(),
                        m.values.iter().map(|v| v.to_bits()).collect(),
                    )
                })
                .collect(),
            dirout_degenerate: row.dirout_degenerate,
            dirout_attempted: row.dirout_direction_budget,
        })
        .collect()
}

fn level_key(c: f64) -> String {
    format!("{c:.2}")
}

/// Renders tables keyed by `(config, variant)` in the file format.
pub fn render(tables: &BTreeMap<(String, u64), Table>) -> String {
    let mut out = String::from(
        "# Fig. 3 golden table, regenerate with `perfledger --write-golden <path>`.\n\
         # <config> <variant> <level> auc <method> <AUC bits per repetition>\n\
         # <config> <variant> <level> dirout <degenerate directions> <attempted directions>\n",
    );
    for ((config, variant), table) in tables {
        for level in table {
            let c = level_key(level.contamination);
            for (method, bits) in &level.aucs {
                let bits: Vec<String> = bits.iter().map(|b| format!("{b:016x}")).collect();
                out.push_str(&format!(
                    "{config} {variant} {c} auc {method} {}\n",
                    bits.join(" ")
                ));
            }
            out.push_str(&format!(
                "{config} {variant} {c} dirout {} {}\n",
                level.dirout_degenerate, level.dirout_attempted
            ));
        }
    }
    out
}

/// The golden table for one `(config, variant)`, if the file holds it.
pub fn lookup(config: &str, variant: u64) -> Result<Table, String> {
    let mut table: Table = Vec::new();
    for (n, line) in GOLDEN.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let bad = || format!("golden/fig3.txt line {}: malformed", n + 1);
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() < 5 {
            return Err(bad());
        }
        if f[0] != config || f[1].parse::<u64>().map_err(|_| bad())? != variant {
            continue;
        }
        let c: f64 = f[2].parse().map_err(|_| bad())?;
        if table
            .last()
            .is_none_or(|l| level_key(l.contamination) != f[2])
        {
            table.push(Level {
                contamination: c,
                aucs: BTreeMap::new(),
                dirout_degenerate: 0,
                dirout_attempted: 0,
            });
        }
        let level = table.last_mut().expect("pushed above");
        match f[3] {
            "auc" => {
                let bits = f[5..]
                    .iter()
                    .map(|h| u64::from_str_radix(h, 16).map_err(|_| bad()))
                    .collect::<Result<Vec<u64>, String>>()?;
                level.aucs.insert(f[4].to_string(), bits);
            }
            "dirout" if f.len() == 6 => {
                level.dirout_degenerate = f[4].parse().map_err(|_| bad())?;
                level.dirout_attempted = f[5].parse().map_err(|_| bad())?;
            }
            _ => return Err(bad()),
        }
    }
    if table.is_empty() {
        return Err(format!(
            "golden/fig3.txt has no {config} table for variant {variant}"
        ));
    }
    Ok(table)
}

/// Repetitions of `got` that differ from `expected`: a `(level, rep)`
/// fails when any method's AUC bits differ, and every repetition of a
/// level fails when its direction budget differs. Also returns a
/// description of the first difference.
pub fn mismatches(expected: &Table, got: &Table, reps: usize) -> (u64, Option<String>) {
    let mut failed = 0u64;
    let mut first = None;
    for (i, exp) in expected.iter().enumerate() {
        let Some(level) = got.get(i) else {
            failed += reps as u64;
            first.get_or_insert_with(|| format!("level {i} missing"));
            continue;
        };
        if level.dirout_degenerate != exp.dirout_degenerate
            || level.dirout_attempted != exp.dirout_attempted
            || level_key(level.contamination) != level_key(exp.contamination)
        {
            failed += reps as u64;
            first.get_or_insert_with(|| {
                format!(
                    "c={}: Dir.out budget {}/{} != golden {}/{}",
                    level_key(exp.contamination),
                    level.dirout_degenerate,
                    level.dirout_attempted,
                    exp.dirout_degenerate,
                    exp.dirout_attempted
                )
            });
            continue;
        }
        for r in 0..reps {
            let bad = exp.aucs.iter().find(|(method, bits)| {
                bits.get(r) != level.aucs.get(*method).and_then(|b| b.get(r))
            });
            if let Some((method, _)) = bad {
                failed += 1;
                first.get_or_insert_with(|| {
                    format!(
                        "c={} rep {r}: {method} AUC differs from golden",
                        level_key(exp.contamination)
                    )
                });
            }
        }
    }
    if got.len() > expected.len() {
        failed += ((got.len() - expected.len()) * reps) as u64;
        first.get_or_insert_with(|| "more levels than golden".into());
    }
    (failed, first)
}
