//! A hand-rolled, std-only HTTP scrape endpoint for the recorder:
//! `/metrics` in Prometheus text exposition format, `/report` as the
//! human-readable report, `/trace` as Chrome trace-event JSON.
//!
//! The server is a single background thread over a blocking
//! [`TcpListener`]; scrapes are rare and tiny, so one connection at a
//! time is plenty and keeps the crate dependency-free. The returned
//! [`HttpHandle`] stops the server on drop (mirroring the registry
//! watcher's `WatchHandle`): it raises a stop flag and unblocks the
//! accept loop with a self-connection, then joins the thread.

use crate::journal;
use crate::metrics::{bucket_upper_edge, HistogramSnapshot, HIST_BUCKETS};
use crate::recorder::{MetricsSnapshot, Recorder};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Environment variable naming the scrape bind address
/// (e.g. `MFOD_OBS_HTTP=127.0.0.1:9464`), honoured by
/// [`Recorder::serve_from_env`].
pub const ENV_OBS_HTTP: &str = "MFOD_OBS_HTTP";

/// Running scrape server. Dropping the handle stops the server and
/// joins its thread; [`HttpHandle::addr`] reports the bound address
/// (useful with port 0).
#[derive(Debug)]
pub struct HttpHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
    thread: Option<JoinHandle<()>>,
}

impl HttpHandle {
    /// The address the server actually bound (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the server and joins its thread (same as dropping).
    pub fn stop(self) {}
}

impl Drop for HttpHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop; an error just means the server
        // already noticed the flag some other way.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Binds `addr` and serves scrapes on a background thread.
pub(crate) fn serve(addr: &str) -> std::io::Result<HttpHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("mfod-obs-http".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if flag.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(mut stream) = conn {
                    let _ = handle_conn(&mut stream);
                    let _ = stream.shutdown(Shutdown::Both);
                }
            }
        })?;
    Ok(HttpHandle {
        stop,
        addr: local,
        thread: Some(thread),
    })
}

fn handle_conn(stream: &mut TcpStream) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read the request head (bounded; scrape requests are tiny).
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > 8 * 1024 {
            break;
        }
    }
    let line = head.split(|&b| b == b'\r').next().unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain",
            "GET only\n".to_string(),
        )
    } else {
        match path.split('?').next().unwrap_or(path) {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                prometheus_text(&Recorder::snapshot()),
            ),
            "/report" => (
                "200 OK",
                "text/plain; charset=utf-8",
                Recorder::snapshot().format_report(),
            ),
            "/trace" => (
                "200 OK",
                "application/json; charset=utf-8",
                journal::chrome_trace_json(),
            ),
            "/" => (
                "200 OK",
                "text/plain; charset=utf-8",
                "mfod-obs scrape endpoint: /metrics /report /trace\n".to_string(),
            ),
            _ => ("404 Not Found", "text/plain", "not found\n".to_string()),
        }
    };
    let mut resp = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    resp.push_str(&body);
    stream.write_all(resp.as_bytes())
}

// ---------------------------------------------------------------------
// Prometheus text exposition
// ---------------------------------------------------------------------

fn family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn counter(out: &mut String, name: &str, help: &str, v: u64) {
    family(out, name, help, "counter");
    let _ = writeln!(out, "{name} {v}");
}

fn gauge_u64(out: &mut String, name: &str, help: &str, v: u64) {
    family(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {v}");
}

fn gauge_f64(out: &mut String, name: &str, help: &str, v: f64) {
    family(out, name, help, "gauge");
    let _ = writeln!(out, "{name} {v:.6}");
}

/// Emits one histogram series (the `# HELP`/`# TYPE` header is the
/// caller's job, so labelled families share a single header). Trailing
/// empty buckets are elided — cumulative `le` series stay valid with
/// any subset of edges as long as `+Inf` is present and counts are
/// non-decreasing, which they are by construction.
fn histogram_series(out: &mut String, name: &str, labels: &str, h: &HistogramSnapshot) {
    let sep = if labels.is_empty() { "" } else { "," };
    let last = h.buckets.iter().rposition(|&b| b > 0).map_or(0, |i| i + 1);
    let mut cum = 0u64;
    for i in 0..last.min(HIST_BUCKETS) {
        cum = cum.saturating_add(h.buckets[i]);
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cum}",
            bucket_upper_edge(i)
        );
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count);
    }
}

fn histogram(out: &mut String, name: &str, help: &str, labels: &str, h: &HistogramSnapshot) {
    family(out, name, help, "histogram");
    histogram_series(out, name, labels, h);
}

/// Renders a [`MetricsSnapshot`] (plus journal drop accounting) in
/// Prometheus text exposition format 0.0.4.
pub fn prometheus_text(s: &MetricsSnapshot) -> String {
    let mut o = String::with_capacity(8 * 1024);

    counter(
        &mut o,
        "mfod_pool_maps_total",
        "Parallel map operations issued.",
        s.pool.maps,
    );
    counter(
        &mut o,
        "mfod_pool_chunks_queued_total",
        "Sub-chunks handed to the pool injector.",
        s.pool.chunks_queued,
    );
    counter(
        &mut o,
        "mfod_pool_caller_steals_total",
        "Queued sub-chunks the caller stole back.",
        s.pool.caller_steals,
    );
    counter(
        &mut o,
        "mfod_pool_worker_runs_total",
        "Queued sub-chunks executed by pool workers.",
        s.pool.worker_runs,
    );
    histogram(
        &mut o,
        "mfod_pool_queue_wait_ns",
        "Sub-chunk injection-to-execution wait (ns).",
        "",
        &s.pool.queue_wait,
    );
    histogram(
        &mut o,
        "mfod_pool_chunk_run_ns",
        "Sub-chunk execution time (ns).",
        "",
        &s.pool.chunk_run,
    );

    counter(
        &mut o,
        "mfod_plan_cache_hits_total",
        "Selection-plan cache hits.",
        s.plan_cache.hits,
    );
    counter(
        &mut o,
        "mfod_plan_cache_misses_total",
        "Selection-plan cache misses.",
        s.plan_cache.misses,
    );
    counter(
        &mut o,
        "mfod_plan_cache_evictions_total",
        "Selection plans evicted by the LRU bound.",
        s.plan_cache.evictions,
    );
    histogram(
        &mut o,
        "mfod_plan_build_ns",
        "Selection-plan build time (ns).",
        "",
        &s.plan_cache.build,
    );

    counter(
        &mut o,
        "mfod_stream_flush_full_total",
        "Micro-batches flushed because the batch filled.",
        s.stream.flush_full,
    );
    counter(
        &mut o,
        "mfod_stream_flush_manual_total",
        "Micro-batches flushed by an explicit finish.",
        s.stream.flush_manual,
    );
    counter(
        &mut o,
        "mfod_stream_window_drops_total",
        "Pending windows drained unscored.",
        s.stream.window_drops,
    );
    histogram(
        &mut o,
        "mfod_stream_batch_assembly_ns",
        "Oldest-window arrival-to-flush latency (ns).",
        "",
        &s.stream.batch_assembly,
    );
    histogram(
        &mut o,
        "mfod_stream_batch_score_ns",
        "Micro-batch scoring time (ns).",
        "",
        &s.stream.batch_score,
    );

    counter(
        &mut o,
        "mfod_registry_swaps_total",
        "Successful model swaps.",
        s.registry.swaps,
    );
    gauge_u64(
        &mut o,
        "mfod_registry_generation",
        "Generation of the active model.",
        s.registry.generation,
    );
    counter(
        &mut o,
        "mfod_registry_sweeps_total",
        "Watcher polls of deploy.log.",
        s.registry.sweeps,
    );
    counter(
        &mut o,
        "mfod_registry_rejected_total",
        "Committed generations that failed to install.",
        s.registry.rejected,
    );
    counter(
        &mut o,
        "mfod_registry_unchanged_total",
        "Watcher polls that found deploy.log unchanged.",
        s.registry.unchanged,
    );
    histogram(
        &mut o,
        "mfod_registry_sweep_ns",
        "Watcher poll time (ns).",
        "",
        &s.registry.sweep_time,
    );
    histogram(
        &mut o,
        "mfod_registry_install_ns",
        "Model install time (ns).",
        "",
        &s.registry.install_time,
    );

    counter(
        &mut o,
        "mfod_persist_sections_eager_total",
        "Sections decoded through the eager tier.",
        s.persist.sections_eager,
    );
    counter(
        &mut o,
        "mfod_persist_sections_lazy_total",
        "Sections decoded lazily on first touch.",
        s.persist.sections_lazy,
    );
    histogram(
        &mut o,
        "mfod_persist_first_touch_ns",
        "Lazy first-touch section decode time (ns).",
        "",
        &s.persist.first_touch,
    );

    counter(
        &mut o,
        "mfod_errors_total",
        "Typed errors surfaced by the serving path.",
        s.failures.errors,
    );
    counter(
        &mut o,
        "mfod_quarantined_sessions_total",
        "Sessions quarantined after repeated flush failures.",
        s.failures.quarantined_sessions,
    );
    gauge_u64(
        &mut o,
        "mfod_registry_backoff_level",
        "Current watcher backoff level.",
        s.failures.registry_backoff,
    );

    counter(
        &mut o,
        "mfod_store_promotions_total",
        "Generations promoted through the transactional store.",
        s.store.promotions,
    );
    counter(
        &mut o,
        "mfod_store_recoveries_total",
        "Store opens that ran log-replay recovery.",
        s.store.recoveries,
    );
    counter(
        &mut o,
        "mfod_store_rollbacks_total",
        "Rollbacks re-pointing the active generation.",
        s.store.rollbacks,
    );
    counter(
        &mut o,
        "mfod_store_quarantined_total",
        "Artifacts moved into quarantine (never deleted).",
        s.store.quarantined,
    );
    counter(
        &mut o,
        "mfod_store_fsck_issues_total",
        "Issues reported by fsck walks.",
        s.store.fsck_issues,
    );

    family(
        &mut o,
        "mfod_phase_exclusive_ns",
        "Exclusive pipeline-phase time (ns).",
        "histogram",
    );
    for p in &s.phases {
        histogram_series(
            &mut o,
            "mfod_phase_exclusive_ns",
            &format!("phase=\"{}\"", p.phase.name()),
            &p.exclusive,
        );
    }

    let w = &s.window;
    gauge_f64(
        &mut o,
        "mfod_window_covered_seconds",
        "Seconds of wall clock the rolling-window rates cover (under 60 in the first minute, 0 while idle).",
        w.covered_secs,
    );
    gauge_f64(
        &mut o,
        "mfod_window_windows_per_sec",
        "Windows scored per second (rolling window).",
        w.windows_per_sec,
    );
    gauge_f64(
        &mut o,
        "mfod_window_swaps_per_min",
        "Model swaps per minute (rolling window).",
        w.swaps_per_min,
    );
    gauge_f64(
        &mut o,
        "mfod_window_rejected_per_min",
        "Committed generations that failed to install per minute (rolling window).",
        w.rejected_per_min,
    );
    gauge_f64(
        &mut o,
        "mfod_window_errors_per_sec",
        "Serving errors per second (rolling window).",
        w.errors_per_sec,
    );
    histogram(
        &mut o,
        "mfod_window_batch_score_ns",
        "Rolling micro-batch scoring time (ns).",
        "",
        &w.batch_score,
    );
    histogram(
        &mut o,
        "mfod_window_score_dist_nanoscore",
        "Rolling outlier-score distribution (score x 1e9).",
        "",
        &w.score_dist,
    );

    let j = journal::stats();
    counter(
        &mut o,
        "mfod_journal_recorded_total",
        "Journal events recorded.",
        j.recorded,
    );
    counter(
        &mut o,
        "mfod_journal_dropped_total",
        "Journal events dropped (ring full).",
        j.dropped,
    );
    counter(
        &mut o,
        "mfod_journal_emitted_total",
        "Journal events offered while enabled.",
        j.emitted,
    );
    o
}

#[cfg(test)]
mod tests {
    use super::*;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut resp = String::new();
        stream.read_to_string(&mut resp).unwrap();
        let (head, body) = resp.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_all_routes_and_stops_on_drop() {
        let handle = serve("127.0.0.1:0").unwrap();
        let addr = handle.addr();

        let (head, body) = get(addr, "/");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(body.contains("/metrics"));

        let (head, body) = get(addr, "/metrics");
        assert!(head.contains("text/plain; version=0.0.4"));
        assert!(body.contains("# TYPE mfod_pool_maps_total counter"));

        let (_, body) = get(addr, "/report");
        assert!(body.contains("mfod-obs report"));

        let (head, body) = get(addr, "/trace");
        assert!(head.contains("application/json"));
        assert!(body.starts_with("{\"traceEvents\":["));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"));

        drop(handle);
        // The port is released once the thread has joined.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }

    #[test]
    fn exposition_lines_are_well_formed() {
        let body = prometheus_text(&Recorder::snapshot());
        for line in body.lines() {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (name_and_labels, value) = line.rsplit_once(' ').expect(line);
            assert!(value.parse::<f64>().is_ok(), "bad value in {line}");
            let name = name_and_labels.split('{').next().unwrap();
            assert!(
                name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                "bad metric name in {line}"
            );
        }
    }

    #[test]
    fn histogram_exposition_is_cumulative() {
        let h = crate::Histogram::new();
        for v in [1u64, 3, 3, 900] {
            h.record(v);
        }
        let mut out = String::new();
        histogram(&mut out, "t_ns", "test", "", &h.snapshot());
        let buckets: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("t_ns_bucket"))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]), "{out}");
        assert_eq!(*buckets.last().unwrap(), 4); // +Inf == count
        assert!(out.contains("t_ns_count 4"));
    }
}
