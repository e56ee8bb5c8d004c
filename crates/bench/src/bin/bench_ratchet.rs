//! Perf ratchet: compares a freshly emitted bench JSON against the
//! checked-in baseline and fails on a regression. Dispatches on the
//! report's `"bench"` field:
//!
//! * **`fit_smoothing`** (`BENCH_fit.json`) — the grid-cached selection
//!   engine. Raw wall-clock is not comparable across machines (the
//!   checked-in baseline and a CI runner are different hardware), so the
//!   enforced metric is **hardware-normalized**: the cached-vs-uncached
//!   speedup measured within one run, where the uncached loop acts as
//!   the machine's own denominator. Gates, in order: the bit-parity
//!   field; the cached speedup within tolerance of the baseline's; the
//!   absolute ≥5× cache contract in full mode. Absolute
//!   curves-per-millisecond numbers are printed for both files and
//!   enforced only when `MFOD_RATCHET_ABS=1`.
//!
//! * **`pool_throughput`** (`BENCH_pool.json`) — the work-stealing
//!   scheduler. Gates: the bit-parity field always; on machines with
//!   real parallelism (`hw_threads ≥ 4`) and in full mode, the
//!   straggler-workload speedup of stealing over the contiguous
//!   schedule must hold the absolute ≥1.3× contract *and* stay within
//!   tolerance of the baseline's measured speedup. A baseline recorded
//!   on a single-core box contributes no relative floor (its ratio is
//!   noise around 1.0) — the absolute contract still has teeth there.
//!
//! * **`obs_overhead`** (`BENCH_obs.json`) — the `mfod-obs`
//!   zero-cost-when-disabled contract. Gates: the bit-parity field
//!   always; in full mode the measured disabled-hook overhead must stay
//!   ≤2%. The ceiling is absolute — a disabled hook costs the same
//!   atomic load on every machine — so no hardware-relative floor
//!   applies.
//!
//! * **`faultline_overhead`** (`BENCH_faultline.json`) — the
//!   `mfod-faultline` zero-cost-when-disarmed contract. Gates: the
//!   bit-parity field always; in full mode the measured disarmed-hook
//!   overhead must stay ≤2%. Like `obs_overhead` the ceiling is
//!   absolute — a disarmed injection point costs the same relaxed load
//!   on every machine.
//!
//! Usage: `bench_ratchet <baseline.json> <current.json>`
//!
//! Environment:
//! * `MFOD_RATCHET_TOL` — allowed fractional drop (default `0.20`,
//!   i.e. fail on >20% regression);
//! * `MFOD_RATCHET_ABS` — set to `1` to also enforce the absolute
//!   fit-throughput floor (same-machine comparisons).
//!
//! Refresh `crates/bench/baselines/*.baseline.json` from the CI
//! artifacts after intentional perf changes so the ratchet keeps teeth.

use std::process::ExitCode;

/// Minimal extractor for the flat JSON the benches emit: finds
/// `"key":` and parses the literal after it. Good enough for files this
/// crate writes itself; anything unparseable fails the ratchet loudly.
fn field<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = json.find(&needle)? + needle.len();
    let rest = json[start..].trim_start();
    let end = rest.find([',', '\n', '}'])?;
    Some(rest[..end].trim())
}

fn number(json: &str, key: &str, path: &str) -> Result<f64, String> {
    field(json, key)
        .and_then(|v| v.trim_matches('"').parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: missing or non-numeric field \"{key}\""))
}

fn text(json: &str, key: &str, path: &str) -> Result<String, String> {
    field(json, key)
        .map(|v| v.trim_matches('"').to_string())
        .ok_or_else(|| format!("{path}: missing field \"{key}\""))
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn tolerance() -> f64 {
    std::env::var("MFOD_RATCHET_TOL")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|t| (0.0..1.0).contains(t))
        .unwrap_or(0.20)
}

fn check_parity(json: &str, path: &str) -> Result<(), String> {
    let parity = text(json, "parity", path)?;
    if parity != "bit-identical" {
        return Err(format!(
            "{path}: parity gate reports '{parity}', expected 'bit-identical'"
        ));
    }
    Ok(())
}

// ---- fit_smoothing -----------------------------------------------------

struct FitReport {
    curves: f64,
    cached_ms: f64,
    uncached_ms: f64,
    cached_speedup: f64,
    smoke: String,
}

impl FitReport {
    fn load(json: &str, path: &str) -> Result<Self, String> {
        Ok(FitReport {
            curves: number(json, "curves", path)?,
            cached_ms: number(json, "cached_ms", path)?,
            uncached_ms: number(json, "uncached_ms", path)?,
            cached_speedup: number(json, "cached_speedup", path)?,
            smoke: text(json, "smoke", path)?,
        })
    }

    /// Curves smoothed per millisecond through the cached fit path.
    fn cached_throughput(&self) -> f64 {
        self.curves / self.cached_ms.max(1e-9)
    }

    fn uncached_throughput(&self) -> f64 {
        self.curves / self.uncached_ms.max(1e-9)
    }
}

fn ratchet_fit(
    baseline_json: &str,
    baseline_path: &str,
    current_json: &str,
    current_path: &str,
) -> Result<(), String> {
    let tolerance = tolerance();
    let baseline = FitReport::load(baseline_json, baseline_path)?;
    let current = FitReport::load(current_json, current_path)?;
    check_parity(current_json, current_path)?;

    // Primary, hardware-normalized gate: the cached-vs-uncached speedup.
    let speedup_floor = baseline.cached_speedup * (1.0 - tolerance);
    println!(
        "ratchet[fit]: cached speedup {:.1}x vs baseline {:.1}x (floor {:.1}x at {:.0}% \
         tolerance; baseline smoke={}, current smoke={})",
        current.cached_speedup,
        baseline.cached_speedup,
        speedup_floor,
        tolerance * 100.0,
        baseline.smoke,
        current.smoke,
    );
    let base = baseline.cached_throughput();
    let now = current.cached_throughput();
    println!(
        "ratchet[fit]: cached {now:.2} vs baseline {base:.2} curves/ms; uncached {:.2} vs \
         baseline {:.2} curves/ms (absolute numbers informational unless \
         MFOD_RATCHET_ABS=1 — different machines tick differently)",
        current.uncached_throughput(),
        baseline.uncached_throughput(),
    );
    if current.cached_speedup < speedup_floor {
        return Err(format!(
            "fit-throughput regression: cached speedup {:.2}x is more than {:.0}% below \
             the baseline {:.2}x",
            current.cached_speedup,
            tolerance * 100.0,
            baseline.cached_speedup
        ));
    }
    // The cache contract itself: losing the ≥5x cached-vs-uncached edge
    // means the plan stopped caching, whatever the absolute clock says.
    if current.smoke != "true" && current.cached_speedup < 5.0 {
        return Err(format!(
            "cached selection speedup collapsed to {:.2}x (contract: >= 5x)",
            current.cached_speedup
        ));
    }
    let enforce_abs = std::env::var("MFOD_RATCHET_ABS").is_ok_and(|v| v == "1");
    if enforce_abs && now < base * (1.0 - tolerance) {
        return Err(format!(
            "absolute fit-throughput regression: {now:.2} curves/ms is more than \
             {:.0}% below the baseline {base:.2}",
            tolerance * 100.0
        ));
    }
    Ok(())
}

// ---- pool_throughput ---------------------------------------------------

/// Hardware-thread floor below which a measured scheduler ratio is noise
/// (must match `benches/pool_throughput.rs`).
const POOL_MIN_HW_THREADS: f64 = 4.0;

/// The absolute straggler contract of the stealing scheduler.
const POOL_SPEEDUP_FLOOR: f64 = 1.3;

fn ratchet_pool(
    baseline_json: &str,
    baseline_path: &str,
    current_json: &str,
    current_path: &str,
) -> Result<(), String> {
    let tolerance = tolerance();
    check_parity(current_json, current_path)?;
    let current_speedup = number(current_json, "straggler_speedup", current_path)?;
    let current_hw = number(current_json, "hw_threads", current_path)?;
    let current_smoke = text(current_json, "smoke", current_path)?;
    let base_speedup = number(baseline_json, "straggler_speedup", baseline_path)?;
    let base_hw = number(baseline_json, "hw_threads", baseline_path)?;
    let base_smoke = text(baseline_json, "smoke", baseline_path)?;

    // A single-core baseline measured ~1.0x by construction, and a
    // smoke-mode baseline's ratio is single-rep noise on a tiny
    // workload; only a full-mode baseline with real parallelism
    // contributes a relative floor.
    let relative_floor = if base_hw >= POOL_MIN_HW_THREADS && base_smoke != "true" {
        base_speedup * (1.0 - tolerance)
    } else {
        0.0
    };
    let floor = relative_floor.max(POOL_SPEEDUP_FLOOR);
    println!(
        "ratchet[pool]: straggler speedup {current_speedup:.2}x on {current_hw:.0} hw \
         threads vs baseline {base_speedup:.2}x on {base_hw:.0} (enforced floor \
         {floor:.2}x; current smoke={current_smoke})",
    );
    if current_smoke == "true" {
        println!("ratchet[pool]: smoke-mode report — wall-clock gates skipped");
        return Ok(());
    }
    if current_hw < POOL_MIN_HW_THREADS {
        println!(
            "ratchet[pool]: {current_hw:.0} hardware thread(s) — schedulers time-slice \
             one core identically, wall-clock gates skipped (parity gate passed)"
        );
        return Ok(());
    }
    if current_speedup < floor {
        return Err(format!(
            "pool-scheduling regression: straggler speedup {current_speedup:.2}x is below \
             the enforced floor {floor:.2}x (absolute contract {POOL_SPEEDUP_FLOOR}x, \
             baseline {base_speedup:.2}x at {:.0}% tolerance)",
            tolerance * 100.0
        ));
    }
    Ok(())
}

// ---- obs_overhead ------------------------------------------------------

/// The absolute disabled-path overhead contract, in percent (must match
/// `benches/obs_overhead.rs`).
const OBS_OVERHEAD_CEILING_PCT: f64 = 2.0;

fn ratchet_obs(
    baseline_json: &str,
    baseline_path: &str,
    current_json: &str,
    current_path: &str,
) -> Result<(), String> {
    check_parity(current_json, current_path)?;
    let current_pct = number(current_json, "overhead_pct", current_path)?;
    let current_smoke = text(current_json, "smoke", current_path)?;
    let base_pct = number(baseline_json, "overhead_pct", baseline_path)?;
    let base_smoke = text(baseline_json, "smoke", baseline_path)?;
    println!(
        "ratchet[obs]: disabled-path hook overhead {current_pct:+.2}% vs baseline \
         {base_pct:+.2}% (ceiling {OBS_OVERHEAD_CEILING_PCT}%; baseline smoke={base_smoke}, \
         current smoke={current_smoke})"
    );
    // Enabled-recorder arms are informational only — the contract gates
    // the disabled path; recording (and journalling) may cost something.
    if let (Ok(enabled_pct), Ok(journal_pct)) = (
        number(current_json, "enabled_pct", current_path),
        number(current_json, "journal_pct", current_path),
    ) {
        println!(
            "ratchet[obs]: enabled-path overhead {enabled_pct:+.2}% · with per-item journal \
             span {journal_pct:+.2}% (informational, not gated)"
        );
    }
    if current_smoke == "true" {
        println!("ratchet[obs]: smoke-mode report — wall-clock gate skipped (parity gate passed)");
        return Ok(());
    }
    // The overhead contract is absolute — a disabled hook costs the same
    // atomic load on every machine, so no hardware-relative floor is
    // needed. Negative values are timing noise in the caller's favour.
    if current_pct > OBS_OVERHEAD_CEILING_PCT {
        return Err(format!(
            "observability regression: disabled-path hook overhead {current_pct:.2}% \
             exceeds the {OBS_OVERHEAD_CEILING_PCT}% ceiling"
        ));
    }
    Ok(())
}

// ---- faultline_overhead ------------------------------------------------

/// The absolute disarmed-path overhead contract, in percent (must match
/// `benches/faultline_overhead.rs`).
const FAULTLINE_OVERHEAD_CEILING_PCT: f64 = 2.0;

fn ratchet_faultline(
    baseline_json: &str,
    baseline_path: &str,
    current_json: &str,
    current_path: &str,
) -> Result<(), String> {
    check_parity(current_json, current_path)?;
    let current_pct = number(current_json, "overhead_pct", current_path)?;
    let current_smoke = text(current_json, "smoke", current_path)?;
    let base_pct = number(baseline_json, "overhead_pct", baseline_path)?;
    let base_smoke = text(baseline_json, "smoke", baseline_path)?;
    println!(
        "ratchet[faultline]: disarmed-path injection overhead {current_pct:+.2}% vs baseline \
         {base_pct:+.2}% (ceiling {FAULTLINE_OVERHEAD_CEILING_PCT}%; baseline \
         smoke={base_smoke}, current smoke={current_smoke})"
    );
    if current_smoke == "true" {
        println!(
            "ratchet[faultline]: smoke-mode report — wall-clock gate skipped (parity gate passed)"
        );
        return Ok(());
    }
    // Like the obs contract, the ceiling is absolute — a disarmed
    // injection point costs the same atomic load on every machine.
    // Negative values are timing noise in the caller's favour.
    if current_pct > FAULTLINE_OVERHEAD_CEILING_PCT {
        return Err(format!(
            "fault-injection regression: disarmed-path hook overhead {current_pct:.2}% \
             exceeds the {FAULTLINE_OVERHEAD_CEILING_PCT}% ceiling"
        ));
    }
    Ok(())
}

// ---- driver ------------------------------------------------------------

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().collect();
    let [_, baseline_path, current_path] = args.as_slice() else {
        return Err(format!(
            "usage: {} <baseline.json> <current.json>",
            args.first().map(String::as_str).unwrap_or("bench_ratchet")
        ));
    };
    let baseline_json = read(baseline_path)?;
    let current_json = read(current_path)?;
    let kind = text(&current_json, "bench", current_path)?;
    let baseline_kind = text(&baseline_json, "bench", baseline_path)?;
    if kind != baseline_kind {
        return Err(format!(
            "bench kind mismatch: baseline is '{baseline_kind}', current is '{kind}'"
        ));
    }
    match kind.as_str() {
        "fit_smoothing" => ratchet_fit(&baseline_json, baseline_path, &current_json, current_path)?,
        "pool_throughput" => {
            ratchet_pool(&baseline_json, baseline_path, &current_json, current_path)?
        }
        "obs_overhead" => ratchet_obs(&baseline_json, baseline_path, &current_json, current_path)?,
        "faultline_overhead" => {
            ratchet_faultline(&baseline_json, baseline_path, &current_json, current_path)?
        }
        other => return Err(format!("{current_path}: unknown bench kind '{other}'")),
    }
    println!("ratchet: OK");
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("bench_ratchet: {msg}");
            ExitCode::FAILURE
        }
    }
}
