//! Pieces shared by the three workloads: command-line arguments, the
//! outcome every workload returns, seeded input generation, repeated
//! set-up, summary statistics and the per-run scratch directory.

use mfod::datasets::{EcgConfig, EcgSimulator, LabeledDataSet};
use mfod::fda::RawSample;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Tiny inputs for the benchmark's own tests.
    pub smoke: bool,
    /// Regenerate the Fig. 3 golden file at this path instead of running.
    pub write_golden: Option<PathBuf>,
}

impl Args {
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 0,
            seconds: 10,
            trace: false,
            smoke: false,
            write_golden: None,
        };
        while let Some(flag) = it.next() {
            let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value("--workload")?,
                "--seed" => args.seed = parse_num(&value("--seed")?, "--seed")?,
                "--seconds" => args.seconds = parse_num(&value("--seconds")?, "--seconds")?,
                "--trace" => {
                    args.trace = match value("--trace")?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, got {other}")),
                    }
                }
                "--smoke" => args.smoke = true,
                "--write-golden" => args.write_golden = Some(value("--write-golden")?.into()),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if args.write_golden.is_none() && args.workload.is_empty() {
            return Err("--workload is required (fig3, stream or rollout)".into());
        }
        if args.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(args)
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs(self.seconds)
    }
}

fn parse_num(s: &str, what: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| format!("{what} takes a whole number, got {s}"))
}

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// What a workload run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the final JSON line, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (the issue's metric names, sample
    /// counts, failures); printed before the result line.
    pub report: Vec<String>,
    /// Run-record entries specific to the workload (JSON values).
    pub record: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts `count` failed operations and says why (only the first few
    /// reasons: a broken run can fail thousands of operations).
    pub fn fail(&mut self, count: u64, what: impl Into<String>) {
        self.failed += count;
        if self.report.iter().filter(|l| l.starts_with("FAIL")).count() < 20 {
            self.report.push(format!("FAIL {}", what.into()));
        }
    }

    /// Records a comparison's `(failed operations, first difference)`.
    pub fn compared(&mut self, (failed, first): (u64, Option<String>), what: &str) {
        if failed > 0 {
            self.fail(failed, format!("{what}: {}", first.unwrap_or_default()));
        }
    }
}

/// Independent sub-seed `stream` of the workload seed (SplitMix64 mix),
/// so every generated input is a pure function of `--seed`.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Simulated ECG beats augmented with the squared series (the paper's
/// bivariate construction, Sec. 4.1).
pub fn ecg_beats(
    ecg: &EcgConfig,
    n_normal: usize,
    n_abnormal: usize,
    seed: u64,
) -> Result<LabeledDataSet, String> {
    EcgSimulator::new(ecg.clone())
        .and_then(|sim| sim.generate(n_normal, n_abnormal, seed))
        .and_then(|d| d.augment_with(0, |y| y * y))
        .map_err(|e| format!("ECG simulation: {e}"))
}

/// `n` beats, about 10 % abnormal, in a seeded shuffled order — the
/// traffic the serving workloads push.
pub fn beat_stream(ecg: &EcgConfig, n: usize, seed: u64) -> Result<Vec<RawSample>, String> {
    let n_abnormal = n / 10;
    let mut beats = ecg_beats(ecg, n - n_abnormal, n_abnormal, seed)?
        .samples()
        .to_vec();
    let mut state = derive_seed(seed, 0x5EED);
    for i in (1..beats.len()).rev() {
        state = derive_seed(state, i as u64);
        beats.swap(i, (state % (i as u64 + 1)) as usize);
    }
    Ok(beats)
}

/// Set-ups per untraced run. One set-up takes well under a second and
/// varies with the host, so `setup_s` is the median of several.
pub const SETUPS: usize = 9;

/// Runs `setup` [`SETUPS`] times, each from nothing (the previous result
/// is dropped first), and returns the last result with the median set-up
/// time in seconds. The first set-up is timed from process start.
pub fn repeated_setup<T>(
    main_start: Instant,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for i in 0..SETUPS {
        drop(last.take());
        let t0 = if i == 0 { main_start } else { Instant::now() };
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// Median (mean of the middle pair for an even count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Nearest-rank percentile `p ∈ (0, 1]` of raw samples; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A per-run directory inside the checkout (`.perfledger/`), removed
/// when dropped. Model stores live here: the benchmark reads and writes
/// only inside its checkout.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = PathBuf::from(".perfledger").join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Formats a report line: name, value, unit and a note.
pub fn report_line(name: &str, value: f64, unit: &str, note: &str) -> String {
    format!("  {name:<16} {value:>12.4} {unit:<9} {note}")
}
