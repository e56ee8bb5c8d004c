//! Ablation **A2** — smoothing sensitivity: AUC of `iFor(Curvmap)` as a
//! function of the B-spline basis size and the roughness-penalty weight λ.
//! Demonstrates the derivative-oversmoothing trade-off that the comment on
//! `PipelineConfig::default` (`crates/mfod/src/pipeline.rs:82–88`)
//! documents: prediction-optimal smoothing under-smooths derivatives.
//! Item 6 of `ROADMAP.md` takes up how that default should be chosen.
//!
//! ```sh
//! cargo run --release -p mfod-bench --bin ablation_smoothing [reps]
//! ```

use mfod::prelude::*;
use std::sync::Arc;

fn main() -> Result<(), MfodError> {
    let reps: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let data = EcgSimulator::new(EcgConfig::default())?
        .generate(128, 64, 2020)?
        .augment_with(0, |y| y * y)?;

    println!("A2: iFor(Curvmap) AUC vs basis size and λ (c = 10%, {reps} splits)\n");
    println!(
        "{:<10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "L \\ λ", "1e-8", "1e-4", "1e-3", "1e-2", "1e-1"
    );
    for &size in &[6usize, 8, 12, 16, 20, 30] {
        print!("{size:<10}");
        for &lambda in &[1e-8, 1e-4, 1e-3, 1e-2, 1e-1] {
            let pipeline = GeomOutlierPipeline::new(
                PipelineConfig {
                    selector: BasisSelector {
                        sizes: vec![size],
                        lambdas: vec![lambda],
                        ..Default::default()
                    },
                    ..Default::default()
                },
                Arc::new(Curvature),
                Arc::new(IsolationForest::default()),
            );
            let summary = mfod::eval::run_repeated(reps, 38, |seed| {
                let (train, test) = SplitConfig {
                    train_size: 96,
                    contamination: 0.10,
                }
                .split_datasets(&data, seed)?;
                let auc_v = pipeline.fit_score_auc(&train, &test)?;
                Ok::<_, MfodError>(vec![("auc".to_string(), auc_v)])
            })?;
            print!(" {:>10.3}", summary.methods[0].mean);
        }
        println!();
    }

    println!("\nLOOCV ladder (paper's protocol) for reference:");
    let pipeline = GeomOutlierPipeline::new(
        PipelineConfig {
            selector: BasisSelector::default(),
            ..Default::default()
        },
        Arc::new(Curvature),
        Arc::new(IsolationForest::default()),
    );
    let summary = mfod::eval::run_repeated(reps, 38, |seed| {
        let (train, test) = SplitConfig {
            train_size: 96,
            contamination: 0.10,
        }
        .split_datasets(&data, seed)?;
        let auc_v = pipeline.fit_score_auc(&train, &test)?;
        Ok::<_, MfodError>(vec![("auc".to_string(), auc_v)])
    })?;
    println!(
        "LOOCV over {:?}: AUC {:.3} ± {:.3}",
        BasisSelector::default().sizes,
        summary.methods[0].mean,
        summary.methods[0].std
    );
    Ok(())
}
