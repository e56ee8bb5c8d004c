//! Labeled functional datasets: raw samples plus outlier ground truth, with
//! CSV persistence.

use crate::error::DatasetError;
use crate::Result;
use mfod_fda::RawSample;
use std::io::{BufRead, BufReader, Write};
use std::path::Path;

/// A collection of raw multivariate functional samples with ground-truth
/// outlier labels (`true` = outlier).
///
/// Labels are only consumed at evaluation time (AUC computation); the
/// detection pipeline itself is unsupervised, exactly as in the paper
/// (Sec. 4.2).
#[derive(Debug, Clone)]
pub struct LabeledDataSet {
    samples: Vec<RawSample>,
    labels: Vec<bool>,
}

impl LabeledDataSet {
    /// Bundles samples and labels, validating their consistency.
    pub fn new(samples: Vec<RawSample>, labels: Vec<bool>) -> Result<Self> {
        if samples.len() != labels.len() {
            return Err(DatasetError::LabelMismatch {
                samples: samples.len(),
                labels: labels.len(),
            });
        }
        Ok(LabeledDataSet { samples, labels })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the dataset has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Borrow the samples.
    pub fn samples(&self) -> &[RawSample] {
        &self.samples
    }

    /// Borrow the labels (`true` = outlier).
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Sample and label at index `i`.
    pub fn get(&self, i: usize) -> Option<(&RawSample, bool)> {
        Some((self.samples.get(i)?, *self.labels.get(i)?))
    }

    /// Number of outliers.
    pub fn n_outliers(&self) -> usize {
        self.labels.iter().filter(|&&l| l).count()
    }

    /// Number of inliers.
    pub fn n_inliers(&self) -> usize {
        self.len() - self.n_outliers()
    }

    /// Indices of all outliers.
    pub fn outlier_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.labels[i]).collect()
    }

    /// Indices of all inliers.
    pub fn inlier_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| !self.labels[i]).collect()
    }

    /// Extracts the subset at `indices` (duplicates allowed).
    pub fn subset(&self, indices: &[usize]) -> Result<LabeledDataSet> {
        let mut samples = Vec::with_capacity(indices.len());
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            let (s, l) = self
                .get(i)
                .ok_or_else(|| DatasetError::InvalidParameter(format!("index {i} out of range")))?;
            samples.push(s.clone());
            labels.push(l);
        }
        LabeledDataSet::new(samples, labels)
    }

    /// Applies the paper's UFD→MFD augmentation to every sample: appends a
    /// channel derived point-wise from channel `channel` (Sec. 4.1 appends
    /// the square of the series).
    pub fn augment_with(&self, channel: usize, f: impl Fn(f64) -> f64 + Copy) -> Result<Self> {
        let samples = self
            .samples
            .iter()
            .map(|s| s.augment_with(channel, f).map_err(DatasetError::from))
            .collect::<Result<Vec<_>>>()?;
        LabeledDataSet::new(samples, self.labels.clone())
    }

    /// Writes the dataset as CSV: one row per sample, columns
    /// `label, t_1, …, t_m, y_11, …` (channels concatenated).
    pub fn save_csv(&self, path: impl AsRef<Path>) -> Result<()> {
        let mut file = std::fs::File::create(path)?;
        for (s, &label) in self.samples.iter().zip(&self.labels) {
            let mut row = Vec::with_capacity(2 + s.t.len() * (1 + s.dim()));
            row.push(if label {
                "1".to_string()
            } else {
                "0".to_string()
            });
            row.push(s.dim().to_string());
            row.extend(s.t.iter().map(|v| format!("{v:?}")));
            for c in &s.channels {
                row.extend(c.iter().map(|v| format!("{v:?}")));
            }
            writeln!(file, "{}", row.join(","))?;
        }
        Ok(())
    }

    /// Loads a dataset written by [`LabeledDataSet::save_csv`].
    pub fn load_csv(path: impl AsRef<Path>) -> Result<Self> {
        let file = std::fs::File::open(path)?;
        let reader = BufReader::new(file);
        let mut samples = Vec::new();
        let mut labels = Vec::new();
        for (lineno, line) in reader.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split(',').collect();
            let parse = |s: &str, what: &str| -> Result<f64> {
                s.trim().parse::<f64>().map_err(|e| DatasetError::Parse {
                    line: lineno + 1,
                    message: format!("{what}: {e}"),
                })
            };
            if fields.len() < 4 {
                return Err(DatasetError::Parse {
                    line: lineno + 1,
                    message: "need at least label, p, and two points".into(),
                });
            }
            let label = match fields[0].trim() {
                "1" => true,
                "0" => false,
                other => {
                    return Err(DatasetError::Parse {
                        line: lineno + 1,
                        message: format!("label must be 0/1, got {other}"),
                    })
                }
            };
            let p = parse(fields[1], "channel count")? as usize;
            if p == 0 || !(fields.len() - 2).is_multiple_of(p + 1) {
                return Err(DatasetError::Parse {
                    line: lineno + 1,
                    message: format!("field count {} incompatible with p = {p}", fields.len()),
                });
            }
            let m = (fields.len() - 2) / (p + 1);
            let t = fields[2..2 + m]
                .iter()
                .map(|s| parse(s, "abscissa"))
                .collect::<Result<Vec<_>>>()?;
            let mut channels = Vec::with_capacity(p);
            for k in 0..p {
                let start = 2 + m * (k + 1);
                channels.push(
                    fields[start..start + m]
                        .iter()
                        .map(|s| parse(s, "value"))
                        .collect::<Result<Vec<_>>>()?,
                );
            }
            samples.push(RawSample::new(t, channels)?);
            labels.push(label);
        }
        LabeledDataSet::new(samples, labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> LabeledDataSet {
        let s1 = RawSample::new(vec![0.0, 0.5, 1.0], vec![vec![1.0, 2.0, 3.0]]).unwrap();
        let s2 = RawSample::new(vec![0.0, 0.5, 1.0], vec![vec![-1.0, 0.0, 1.0]]).unwrap();
        let s3 = RawSample::new(vec![0.0, 0.5, 1.0], vec![vec![9.0, 9.0, 9.0]]).unwrap();
        LabeledDataSet::new(vec![s1, s2, s3], vec![false, false, true]).unwrap()
    }

    #[test]
    fn accessors() {
        let d = tiny();
        assert_eq!(d.len(), 3);
        assert!(!d.is_empty());
        assert_eq!(d.n_outliers(), 1);
        assert_eq!(d.n_inliers(), 2);
        assert_eq!(d.outlier_indices(), vec![2]);
        assert_eq!(d.inlier_indices(), vec![0, 1]);
        assert!(d.get(2).unwrap().1);
        assert!(d.get(9).is_none());
        assert_eq!(d.samples().len(), 3);
        assert_eq!(d.labels(), &[false, false, true]);
    }

    #[test]
    fn label_mismatch_rejected() {
        let s = RawSample::new(vec![0.0, 1.0], vec![vec![1.0, 2.0]]).unwrap();
        assert!(matches!(
            LabeledDataSet::new(vec![s], vec![true, false]),
            Err(DatasetError::LabelMismatch { .. })
        ));
    }

    #[test]
    fn subset_and_errors() {
        let d = tiny();
        let s = d.subset(&[2, 0]).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.labels()[0]);
        assert!(!s.labels()[1]);
        assert!(d.subset(&[5]).is_err());
    }

    #[test]
    fn augmentation_square() {
        let d = tiny();
        let a = d.augment_with(0, |y| y * y).unwrap();
        assert_eq!(a.samples()[0].dim(), 2);
        assert_eq!(a.samples()[0].channels[1], vec![1.0, 4.0, 9.0]);
        assert_eq!(a.labels(), d.labels());
        assert!(d.augment_with(3, |y| y).is_err());
    }

    #[test]
    fn csv_roundtrip() {
        let d = tiny().augment_with(0, |y| y * 0.5).unwrap();
        let dir = std::env::temp_dir().join("mfod_test_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.csv");
        d.save_csv(&path).unwrap();
        let loaded = LabeledDataSet::load_csv(&path).unwrap();
        assert_eq!(loaded.len(), d.len());
        assert_eq!(loaded.labels(), d.labels());
        for (a, b) in loaded.samples().iter().zip(d.samples()) {
            assert_eq!(a.t, b.t);
            assert_eq!(a.channels, b.channels);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn csv_malformed_inputs() {
        let dir = std::env::temp_dir().join("mfod_test_csv");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "2,1,0.0,1.0,5.0,6.0\n").unwrap();
        assert!(matches!(
            LabeledDataSet::load_csv(&path),
            Err(DatasetError::Parse { .. })
        ));
        std::fs::write(&path, "1,abc,0.0,1.0\n").unwrap();
        assert!(LabeledDataSet::load_csv(&path).is_err());
        std::fs::write(&path, "1,1\n").unwrap();
        assert!(LabeledDataSet::load_csv(&path).is_err());
        // wrong field count for declared p
        std::fs::write(&path, "1,2,0.0,1.0,5.0\n").unwrap();
        assert!(LabeledDataSet::load_csv(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
