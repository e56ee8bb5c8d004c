//! Benchmark-side spans: each wraps one public call (or a run of calls)
//! the benchmark makes into a workspace crate. A span records its name,
//! start, end and parent; spans stay in memory and are written out when
//! the run ends. A layer's self time is its spans' durations minus the
//! part their child spans cover.
//!
//! Composite calls are split with the existing `mfod-obs` phase counters:
//! a *scoring* span reads the score-features / score-detector exclusive
//! times before and after the call and books the difference as child
//! layers `mfod.score_features` and `mfod.score_detector`.
//!
//! Tracing is off unless [`enable`] was called; a disabled span is one
//! relaxed load and a direct call.

use mfod_obs::{Phase, Recorder};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Span records kept for the trace file; per-layer sums stay exact past
/// this cap.
const MAX_RECORDS: usize = 200_000;

/// Self time and call count of one layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct Layer {
    pub self_ns: u64,
    pub calls: u64,
}

struct Frame {
    id: u32,
    parent: u32,
    name: &'static str,
    start: Instant,
    calls: u64,
    child_ns: u64,
    obs: Option<[(u64, u64); 2]>,
}

struct Record {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    epoch: Instant,
    next_id: u32,
    stack: Vec<Frame>,
    layers: BTreeMap<&'static str, Layer>,
    records: Vec<Record>,
    dropped: u64,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// What a traced pass recorded.
pub struct Summary {
    pub layers: BTreeMap<&'static str, Layer>,
    records: Vec<Record>,
    dropped: u64,
}

impl Summary {
    /// Sum of every layer's self time.
    pub fn attributed_ns(&self) -> u64 {
        self.layers.values().map(|l| l.self_ns).sum()
    }

    pub fn layer(&self, name: &str) -> Layer {
        self.layers.get(name).copied().unwrap_or_default()
    }

    /// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto): one complete event per span, parent id in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"droppedSpans\":{},\"traceEvents\":[", self.dropped)?;
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.write_all(b",")?;
            }
            write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                r.name,
                r.start_ns as f64 / 1e3,
                (r.end_ns - r.start_ns) as f64 / 1e3,
                r.id,
                r.parent
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

/// Starts recording spans on this thread (the benchmark's client is
/// single-threaded).
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            epoch: Instant::now(),
            next_id: 1,
            stack: Vec::new(),
            layers: BTreeMap::new(),
            records: Vec::new(),
            dropped: 0,
        })
    });
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops recording and returns what was recorded.
pub fn finish() -> Summary {
    ENABLED.store(false, Ordering::Relaxed);
    let tracer = TRACER
        .with(|t| t.borrow_mut().take())
        .expect("trace::finish without trace::enable");
    assert!(tracer.stack.is_empty(), "unbalanced spans at trace::finish");
    Summary {
        layers: tracer.layers,
        records: tracer.records,
        dropped: tracer.dropped,
    }
}

/// One span around one public call.
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    run(name, 1, false, f)
}

/// A span around `calls` consecutive public calls that score through
/// `FittedPipeline` (e.g. the pushes that make up one window): the
/// scoring phases `mfod-obs` times inside it become child layers.
#[inline]
pub fn span_scoring<R>(name: &'static str, calls: u64, f: impl FnOnce() -> R) -> R {
    run(name, calls, true, f)
}

fn score_phases() -> [(u64, u64); 2] {
    let phases = &Recorder::metrics().phases;
    [Phase::ScoreFeatures, Phase::ScoreDetector].map(|p| {
        let s = phases[p.index()].snapshot();
        (s.sum, s.count)
    })
}

fn run<R>(name: &'static str, calls: u64, scoring: bool, f: impl FnOnce() -> R) -> R {
    if !ENABLED.load(Ordering::Relaxed) {
        return f();
    }
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let tr = guard.as_mut().expect("enabled tracer");
        let id = tr.next_id;
        tr.next_id += 1;
        let parent = tr.stack.last().map_or(0, |p| p.id);
        tr.stack.push(Frame {
            id,
            parent,
            name,
            start: Instant::now(),
            calls,
            child_ns: 0,
            obs: scoring.then(score_phases),
        });
    });
    let out = f();
    let end = Instant::now();
    TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let tr = guard.as_mut().expect("enabled tracer");
        let mut frame = tr.stack.pop().expect("span stack underflow");
        if let Some(before) = frame.obs {
            let after = score_phases();
            for (layer, (b, a)) in ["mfod.score_features", "mfod.score_detector"]
                .into_iter()
                .zip(before.iter().zip(&after))
            {
                let ns = a.0 - b.0;
                let entry = tr.layers.entry(layer).or_default();
                entry.self_ns += ns;
                entry.calls += a.1 - b.1;
                frame.child_ns += ns;
            }
        }
        let total = (end - frame.start).as_nanos() as u64;
        let entry = tr.layers.entry(frame.name).or_default();
        entry.self_ns += total.saturating_sub(frame.child_ns);
        entry.calls += frame.calls;
        if let Some(parent) = tr.stack.last_mut() {
            parent.child_ns += total;
        }
        if tr.records.len() < MAX_RECORDS {
            tr.records.push(Record {
                id: frame.id,
                parent: frame.parent,
                name: frame.name,
                start_ns: (frame.start - tr.epoch).as_nanos() as u64,
                end_ns: (end - tr.epoch).as_nanos() as u64,
            });
        } else {
            tr.dropped += 1;
        }
    });
    out
}
