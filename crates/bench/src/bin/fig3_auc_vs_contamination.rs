//! Regenerates the paper's **Fig. 3**: AUC (mean ± std over repeated random
//! splits) versus training contamination level for
//! `Dir.out`, `FUNTA`, `iFor(Curvmap)` and `OCSVM(Curvmap)`.
//!
//! ```sh
//! cargo run --release -p mfod-bench --bin fig3_auc_vs_contamination [reps]
//! cargo run --release -p mfod-bench --bin fig3_auc_vs_contamination [reps] \
//!     --ucr ECG200_TRAIN.tsv ECG200_TEST.tsv
//! ```
//!
//! The optional argument overrides the repetition count (paper: 50).
//! `--ucr <train> <test>` runs the protocol on a UCR-archive pair instead
//! of the simulated beats: both files are pooled, label `-1` marks an
//! outlier, and each curve gains its squared series
//! ([`mfod::experiment::load_ucr_pair`]), so anyone holding ECG200 can
//! rerun the paper's own figure.
//! Output: the text analogue of the figure plus a CSV block for plotting.

use mfod::experiment::{format_fig3, load_ucr_pair, run_fig3, run_fig3_on, Fig3Config};
use std::path::PathBuf;
use std::time::Instant;

fn main() {
    let mut reps = 50;
    let mut ucr: Option<(PathBuf, PathBuf)> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--ucr" {
            match (args.next(), args.next()) {
                (Some(train), Some(test)) => ucr = Some((train.into(), test.into())),
                _ => usage("--ucr needs a train and a test file"),
            }
        } else {
            reps = arg
                .parse()
                .unwrap_or_else(|_| usage(&format!("not a repetition count: {arg}")));
        }
    }
    let cfg = Fig3Config {
        repetitions: reps,
        ..Default::default()
    };
    let data = ucr.as_ref().map(|(train, test)| {
        load_ucr_pair(train, test).unwrap_or_else(|e| {
            eprintln!("cannot load the UCR pair: {e}");
            std::process::exit(1);
        })
    });
    let (n, m) = match &data {
        Some(d) => (d.len(), d.samples()[0].t.len()),
        None => (cfg.n_normal + cfg.n_abnormal, cfg.ecg.m),
    };
    eprintln!(
        "running Fig. 3 on {}: {} contamination levels x {} repetitions \
         (n = {n}, m = {m}, train = {})…",
        if data.is_some() {
            "the UCR pair"
        } else {
            "simulated beats"
        },
        cfg.contamination_levels.len(),
        cfg.repetitions,
        cfg.train_size
    );
    let t0 = Instant::now();
    let rows = match &data {
        Some(d) => run_fig3_on(&cfg, d),
        None => run_fig3(&cfg),
    }
    .expect("experiment failed");
    eprintln!("done in {:.1?}\n", t0.elapsed());

    println!("{}", format_fig3(&rows));

    // machine-readable blocks
    println!("# CSV: contamination,method,auc_mean,auc_std");
    for row in &rows {
        for m in &row.summary.methods {
            println!(
                "{:.2},{},{:.4},{:.4}",
                row.contamination, m.method, m.mean, m.std
            );
        }
    }
    println!("# CSV: contamination,dirout_degenerate,dirout_direction_budget");
    for row in &rows {
        println!(
            "{:.2},{},{}",
            row.contamination, row.dirout_degenerate, row.dirout_direction_budget
        );
    }
}

fn usage(why: &str) -> ! {
    eprintln!("{why}\nusage: fig3_auc_vs_contamination [reps] [--ucr <train> <test>]");
    std::process::exit(2);
}
