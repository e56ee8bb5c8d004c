//! The observability contract: instrumentation is a pure *observer*.
//! Scores must be bit-for-bit identical with the recorder on and off,
//! the pool counters must satisfy their conservation law, and the
//! disabled path must record nothing at all.

use mfod::linalg::par::Pool;
use mfod::persist::ModelRegistry;
use mfod::prelude::*;
use mfod_fixtures::{ecg_fitted, ecg_split, sine_pipeline, FixtureConfig};
use mfod_obs::{journal, Phase, Recorder};
use mfod_stream::{BatchConfig, OnlineScorer, StreamConfig, StreamError, WindowConfig};
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};

/// The recorder is process-global; tests that toggle it must not
/// interleave.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn locked() -> std::sync::MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what} row {i}: {x} != {y}");
    }
}

/// Fits, batch-scores (sequential and parallel) and streams the ECG fixture,
/// returning every floating-point output the run produces.
fn full_run() -> (Vec<f64>, Vec<f64>, Vec<f64>) {
    let (train, test) = ecg_split();
    let fitted = ecg_fitted(&train);
    let exact = fitted.score(test.samples()).unwrap();
    let par = fitted.par_score(test.samples()).unwrap();
    let train_scores = fitted.par_score(train.samples()).unwrap();
    let ts = test.samples()[0].t.clone();
    let mut scorer = OnlineScorer::new(
        Arc::clone(&fitted),
        StreamConfig {
            window: WindowConfig::tumbling(ts, 2),
            batch: BatchConfig {
                batch_size: 4,
                ..Default::default()
            },
        },
    )
    .unwrap();
    scorer.calibrate(&train_scores, 0.2).unwrap();
    let mut stream_scores = Vec::new();
    for beat in test.samples() {
        for j in 0..beat.t.len() {
            let obs = [beat.channels[0][j], beat.channels[1][j]];
            stream_scores.extend(scorer.push(&obs).unwrap().into_iter().map(|v| v.score));
        }
    }
    stream_scores.extend(scorer.finish().unwrap().into_iter().map(|v| v.score));
    (exact, par, stream_scores)
}

/// One blocking HTTP GET against the scrape endpoint, returning the
/// response head and body.
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    let (head, body) = resp.split_once("\r\n\r\n").expect("no header/body split");
    (head.to_string(), body.to_string())
}

#[test]
fn scores_are_bit_identical_with_obs_on_and_off() {
    let _g = locked();
    Recorder::install(false);
    let (exact_off, par_off, stream_off) = full_run();
    Recorder::install(true);
    Recorder::reset();
    let (exact_on, par_on, stream_on) = full_run();
    Recorder::install(false);
    assert_bits_eq(&exact_off, &exact_on, "exact path");
    assert_bits_eq(&par_off, &par_on, "parallel path");
    assert_bits_eq(&stream_off, &stream_on, "streaming path");
}

#[test]
fn pool_counters_satisfy_conservation() {
    let _g = locked();
    Recorder::install(true);
    let pool = Pool::with_threads(3);
    let before = Recorder::snapshot();
    let n = 4096;
    for _ in 0..5 {
        let out = pool.map(n, |i| i as u64 * 3);
        assert_eq!(out[n - 1], (n as u64 - 1) * 3);
    }
    let d = Recorder::snapshot().diff(&before);
    Recorder::install(false);
    assert_eq!(d.pool.maps, 5);
    assert!(d.pool.chunks_queued > 0, "multi-chunk maps must queue work");
    // Every queued sub-chunk is executed exactly once — either stolen
    // back by the caller while helping, or run by a pool worker.
    assert_eq!(
        d.pool.caller_steals + d.pool.worker_runs,
        d.pool.chunks_queued,
        "steals {} + runs {} != queued {}",
        d.pool.caller_steals,
        d.pool.worker_runs,
        d.pool.chunks_queued
    );
    // Queue wait is recorded per queued sub-chunk; run time also covers
    // the chunk the caller executes inline (one per map).
    assert_eq!(d.pool.queue_wait.count, d.pool.chunks_queued);
    assert_eq!(d.pool.chunk_run.count, d.pool.chunks_queued + d.pool.maps);
}

#[test]
fn disabled_recorder_records_nothing() {
    let _g = locked();
    Recorder::install(false);
    Recorder::reset();
    let (train, test) = ecg_split();
    let fitted = ecg_fitted(&train);
    fitted.par_score(test.samples()).unwrap();
    let pool = Pool::with_threads(2);
    pool.map(1000, |i| i + 1);
    let registry: ModelRegistry<FittedPipeline> = ModelRegistry::new();
    registry
        .install_bytes(&mfod::persist::to_bytes(&fitted.snapshot().unwrap()))
        .unwrap();
    let snap = Recorder::snapshot();
    assert_eq!(snap.pool.maps, 0);
    assert_eq!(snap.pool.chunks_queued, 0);
    assert_eq!(snap.plan_cache.hits + snap.plan_cache.misses, 0);
    assert_eq!(snap.persist.sections_eager + snap.persist.sections_lazy, 0);
    assert_eq!(snap.registry.install_time.count, 0);
    assert!(snap.phases.iter().all(|p| p.exclusive.count == 0));
}

#[test]
fn live_run_populates_every_report_section() {
    let _g = locked();
    Recorder::install(true);
    Recorder::reset();
    let (fitted, train, ts) = sine_pipeline(&FixtureConfig::default());
    let train_scores = fitted.par_score(&train).unwrap();
    let mut scorer = OnlineScorer::new(
        Arc::clone(&fitted),
        StreamConfig {
            window: WindowConfig::tumbling(ts.clone(), 2),
            batch: BatchConfig {
                batch_size: 3,
                ..Default::default()
            },
        },
    )
    .unwrap();
    scorer.calibrate(&train_scores, 0.25).unwrap();
    for s in &train {
        for j in 0..s.t.len() {
            scorer.push(&[s.channels[0][j], s.channels[1][j]]).unwrap();
        }
    }
    scorer.finish().unwrap();
    // two installs, so the swap counter and the generation gauge move
    let registry: ModelRegistry<FittedPipeline> = ModelRegistry::new();
    let bytes = mfod::persist::to_bytes(&fitted.snapshot().unwrap());
    for _ in 0..2 {
        registry.install_bytes(&bytes).unwrap();
    }
    // a lazy first-touch decode, so the deferred-section metrics move
    let fleet = mfod_fixtures::persist::tenant_fleet_bytes(
        &mfod_fixtures::persist::TenantFleetConfig::default(),
    );
    let lazy = mfod::persist::LazySnapshot::open(&fleet).unwrap();
    mfod_fixtures::persist::lazy_tenant_digest(&lazy, 0).unwrap();
    let snap = Recorder::snapshot();
    Recorder::install(false);

    // fit + scoring phases were traced
    assert!(snap.phases[Phase::FitFeatures.index()].exclusive.count >= 1);
    assert!(snap.phases[Phase::FitDetector.index()].exclusive.count >= 1);
    assert!(snap.phases[Phase::ScoreFeatures.index()].exclusive.count >= 1);
    assert!(snap.phases[Phase::ScoreDetector.index()].exclusive.count >= 1);
    // the plan cache saw the scoring lookups
    assert!(snap.plan_cache.hits + snap.plan_cache.misses > 0);
    // the stream flushed micro-batches and measured their latency
    let flushes = snap.stream.flush_full + snap.stream.flush_manual;
    assert!(flushes > 0, "no micro-batch flushes recorded");
    assert_eq!(snap.stream.batch_score.count, flushes);
    assert!(snap.stream.batch_score.quantile(0.99).is_some());
    // the registry swaps bumped the generation gauge and were timed
    assert_eq!(snap.registry.swaps, 2);
    assert_eq!(snap.registry.generation, 2);
    assert_eq!(snap.registry.install_time.count, 2);
    // the installs decoded their bodies whole
    assert!(snap.persist.sections_eager >= 2, "no eager section decodes");
    // the fleet touch decoded exactly one section lazily, and timed it
    assert_eq!(snap.persist.sections_lazy, 1);
    assert_eq!(snap.persist.first_touch.count, 1);

    // and both renderings carry the headline numbers
    let report = snap.format_report();
    for needle in [
        "pool",
        "plan cache",
        "hit rate",
        "registry   generation 2",
        "persist    sections:",
        "p95",
    ] {
        assert!(
            report.contains(needle),
            "report missing {needle}:\n{report}"
        );
    }
    let json = snap.to_json();
    assert!(json.contains("\"generation\": 2"));
    assert!(json.contains("\"sections_eager\""));
    assert!(json.contains("\"install_ns\""));
    assert!(json.contains("\"p99\""));
}

/// A quarantine is one surfaced error, and the lifetime counter, the
/// windowed error rate and the caller all count it once: one injected
/// flush failure with no retries surfaces that failure, then the
/// quarantine of the batch it left behind.
#[test]
fn a_quarantine_counts_once_in_every_error_tally() {
    let _g = locked();
    Recorder::install(true);
    Recorder::reset();
    let (fitted, train, ts) = sine_pipeline(&FixtureConfig::default());
    let mut scorer = OnlineScorer::new(
        fitted,
        StreamConfig {
            window: WindowConfig::tumbling(ts.clone(), 2),
            batch: BatchConfig {
                batch_size: 1,
                max_flush_retries: 0,
            },
        },
    )
    .unwrap();
    mfod_faultline::install(mfod_faultline::FaultPlan::new(71).rule(
        mfod_faultline::points::STREAM_FLUSH,
        mfod_faultline::FaultRule::always().times(1),
    ));
    let mut surfaced = Vec::new();
    for s in &train[..3] {
        for j in 0..ts.len() {
            if let Err(e) = scorer.push(&[s.channels[0][j], s.channels[1][j]]) {
                surfaced.push(e);
            }
        }
    }
    mfod_faultline::disarm();
    let now = mfod_obs::window::now_slot_id();
    let errors = Recorder::snapshot().failures.errors;
    let windowed = Recorder::metrics().win_errors.sum_live(now);
    Recorder::reset();
    Recorder::install(false);

    assert_eq!(surfaced.len(), 2, "{surfaced:?}");
    assert!(
        surfaced[0].to_string().contains("injected fault"),
        "{surfaced:?}"
    );
    assert!(
        matches!(surfaced[1], StreamError::Quarantined { windows: 2, .. }),
        "{surfaced:?}"
    );
    assert_eq!(scorer.quarantined(), 1);
    assert_eq!(errors, surfaced.len() as u64, "errors_total");
    assert_eq!(windowed, surfaced.len() as u64, "win_errors");
}

/// The full telemetry stack — event journal, rotating windows and the
/// live scrape endpoint — must still be a pure observer: every scoring
/// path (sequential, parallel and streaming) produces the same bits as
/// a run with the recorder fully disabled.
#[test]
fn scores_are_bit_identical_with_full_telemetry_stack_live() {
    let _g = locked();
    Recorder::install(false);
    let (exact_off, par_off, stream_off) = full_run();

    Recorder::install(true);
    Recorder::reset();
    journal::reset();
    let http = Recorder::serve("127.0.0.1:0").unwrap();
    let (exact_on, par_on, stream_on) = full_run();
    // Scrape mid-flight state and export the trace while the recorder
    // is still live — neither may perturb anything scored afterwards.
    let (head, _) = http_get(http.addr(), "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    let _ = journal::chrome_trace_json();
    let (exact_again, ..) = full_run();
    drop(http);
    journal::reset();
    Recorder::install(false);

    assert_bits_eq(&exact_off, &exact_on, "exact sequential path");
    assert_bits_eq(&par_off, &par_on, "exact parallel path");
    assert_bits_eq(&stream_off, &stream_on, "streaming path");
    assert_bits_eq(&exact_off, &exact_again, "exact path after scrape");
}

/// `/metrics` after a real workload is valid Prometheus text
/// exposition: well-formed lines, headered families, cumulative `le`
/// series ending in `+Inf`, and the windowed/journal families present.
#[test]
fn scrape_endpoint_serves_valid_prometheus_exposition() {
    let _g = locked();
    Recorder::install(true);
    Recorder::reset();
    journal::reset();
    let pool = Pool::with_threads(2);
    pool.map(2048, |i| i as u64 + 1);
    let http = Recorder::serve("127.0.0.1:0").unwrap();
    let (head, body) = http_get(http.addr(), "/metrics");
    drop(http);
    journal::reset();
    Recorder::install(false);

    assert!(head.starts_with("HTTP/1.1 200"), "{head}");
    assert!(head.contains("text/plain; version=0.0.4"), "{head}");
    let mut typed = std::collections::HashSet::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            typed.insert(rest.split(' ').next().unwrap().to_string());
            continue;
        }
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_and_labels, value) = line.rsplit_once(' ').expect(line);
        assert!(value.parse::<f64>().is_ok(), "unparseable value: {line}");
        let name = name_and_labels.split('{').next().unwrap();
        assert!(
            name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
            "bad metric name: {line}"
        );
        // Every sample belongs to a declared family (histogram series
        // reuse their family name with a _bucket/_sum/_count suffix).
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        assert!(
            typed.contains(base) || typed.contains(name),
            "sample without # TYPE header: {line}"
        );
    }
    for family in [
        "mfod_pool_maps_total",
        "mfod_pool_chunk_run_ns",
        "mfod_phase_exclusive_ns",
        "mfod_window_windows_per_sec",
        "mfod_window_score_dist_nanoscore",
        "mfod_journal_recorded_total",
    ] {
        assert!(typed.contains(family), "missing family {family}:\n{body}");
    }
    // Cumulative histograms: counts never decrease down a `le` series
    // and every series closes with +Inf.
    let buckets: Vec<u64> = body
        .lines()
        .filter(|l| l.starts_with("mfod_pool_chunk_run_ns_bucket"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
        .collect();
    assert!(!buckets.is_empty(), "pool chunk histogram missing");
    assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{buckets:?}");
    assert!(body.contains("mfod_pool_chunk_run_ns_bucket{le=\"+Inf\"}"));
}

/// The exported trace after a full pipeline run is valid Chrome
/// trace-event JSON: every span begin is matched by an end (globally
/// and per thread, with proper nesting), and the drop accounting
/// conserves.
#[test]
fn exported_trace_is_balanced_chrome_trace_json() {
    let _g = locked();
    Recorder::install(true);
    Recorder::reset();
    journal::reset();
    full_run();
    let json = journal::chrome_trace_json();
    let stats = journal::stats();
    journal::reset();
    Recorder::install(false);

    assert_eq!(stats.recorded + stats.dropped, stats.emitted);
    assert!(stats.recorded > 0, "pipeline run journalled nothing");

    // Pull the traceEvents array apart without a JSON dependency: the
    // exporter emits one flat object per event, no nesting.
    let start = json.find("\"traceEvents\":[").expect("no traceEvents") + 15;
    let end = json[start..].find(']').expect("unterminated array") + start;
    let events: Vec<&str> = json[start..end]
        .split("},\n{")
        .map(str::trim)
        .filter(|e| !e.is_empty())
        .collect();
    let field = |ev: &str, key: &str| -> String {
        let at = ev.find(&format!("\"{key}\":")).unwrap_or_else(|| {
            panic!("event missing {key}: {ev}");
        }) + key.len()
            + 3;
        ev[at..]
            .trim_start_matches('"')
            .chars()
            .take_while(|&c| c != ',' && c != '"' && c != '}')
            .collect()
    };
    let mut depth: std::collections::HashMap<String, i64> = std::collections::HashMap::new();
    let mut begins = 0u64;
    let mut ends = 0u64;
    for ev in &events {
        let (ph, tid) = (field(ev, "ph"), field(ev, "tid"));
        assert!(!field(ev, "name").is_empty(), "unnamed event: {ev}");
        field(ev, "ts").parse::<f64>().expect("non-numeric ts");
        let d = depth.entry(tid).or_insert(0);
        match ph.as_str() {
            "B" => {
                begins += 1;
                *d += 1;
            }
            "E" => {
                ends += 1;
                *d -= 1;
                assert!(*d >= 0, "span end without begin on a thread: {ev}");
            }
            "i" => {}
            other => panic!("unexpected phase {other}: {ev}"),
        }
    }
    assert_eq!(begins, ends, "unbalanced spans in exported trace");
    assert!(begins > 0, "pipeline run produced no spans");
    assert!(
        depth.values().all(|&d| d == 0),
        "unclosed spans per thread: {depth:?}"
    );
    // Drop-free run with every span closed → nothing was excluded as an
    // orphan, so the export carries exactly the recorded events. With
    // drops, begins whose ends fell off the ring are excluded.
    if stats.dropped == 0 {
        assert_eq!(events.len() as u64, stats.recorded);
    } else {
        assert!(events.len() as u64 <= stats.recorded);
    }
}
