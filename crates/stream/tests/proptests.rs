//! Property-based tests of the streaming invariants: window geometry,
//! no window dropped or duplicated across micro-batch flushes, and
//! ingestion recovery — rejected pushes and injected poison never drop,
//! duplicate, or corrupt a window.

use mfod::prelude::*;
use mfod_fda::RawSample;
use mfod_fixtures::{sine_pipeline, FixtureConfig};
use mfod_stream::{BatchConfig, MicroBatcher, StreamStats, WindowBuffer, WindowConfig};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn window_cfg(window_len: usize, channels: usize) -> WindowConfig {
    let ts = (0..window_len)
        .map(|j| j as f64 / (window_len - 1) as f64)
        .collect();
    WindowConfig::tumbling(ts, channels)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_buffer_emits_exact_slices(
        window_len in 2usize..16,
        channels in 1usize..4,
        n_obs in 0usize..200,
    ) {
        let mut buf = WindowBuffer::new(window_cfg(window_len, channels)).unwrap();
        let mut emitted = Vec::new();
        for i in 0..n_obs {
            // channel k at time i carries the value 1000·k + i, making
            // provenance of every window entry checkable
            let obs: Vec<f64> = (0..channels).map(|k| (1000 * k + i) as f64).collect();
            if let Some(w) = buf.push(&obs).unwrap() {
                emitted.push(w);
            }
        }
        // expected number of complete windows
        let expected = n_obs / window_len;
        prop_assert_eq!(emitted.len(), expected);
        prop_assert_eq!(buf.windows_emitted(), expected as u64);
        prop_assert_eq!(buf.observations(), n_obs as u64);
        // window w covers observations [w·window_len, (w+1)·window_len)
        for (w_idx, w) in emitted.iter().enumerate() {
            prop_assert_eq!(w.dim(), channels);
            let start = w_idx * window_len;
            for k in 0..channels {
                let (ts, ys) = w.channel(k).unwrap();
                prop_assert_eq!(ys.len(), window_len);
                prop_assert_eq!(ts.len(), window_len);
                for (j, &y) in ys.iter().enumerate() {
                    prop_assert_eq!(y as usize, 1000 * k + start + j,
                        "window {} channel {} slot {}", w_idx, k, j);
                }
            }
        }
    }

    #[test]
    fn micro_batcher_never_drops_or_duplicates(
        batch_size in 1usize..12,
        n_windows in 0usize..30,
        flush_every in 1usize..15,
    ) {
        let (fitted, windows) = shared_fixture();
        let mut b = MicroBatcher::new(
            Arc::clone(fitted),
            BatchConfig { batch_size, ..Default::default() },
            Arc::new(StreamStats::new()),
        )
        .unwrap();
        let mut released = Vec::new();
        for (i, w) in windows.iter().take(n_windows).enumerate() {
            released.extend(b.submit(w.clone()).unwrap());
            // interleave explicit flushes to stress the boundary logic
            if (i + 1) % flush_every == 0 {
                released.extend(b.flush().unwrap());
            }
        }
        released.extend(b.flush().unwrap());
        prop_assert_eq!(b.pending(), 0);
        // every submitted window scored exactly once, in order
        let n = n_windows.min(windows.len());
        prop_assert_eq!(released.len(), n);
        for (i, r) in released.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64);
            prop_assert!(r.score.is_finite());
        }
        // scores are a function of the window alone, not of the batching:
        // window i must always receive its offline score
        let offline = offline_scores();
        for r in &released {
            prop_assert_eq!(
                r.score.to_bits(),
                offline[r.seq as usize].to_bits(),
                "window {} score drifted under batch_size {} flush_every {}",
                r.seq, batch_size, flush_every
            );
        }
    }

    /// Recovery invariant: a stream peppered with rejected observations
    /// (NaN pushes, wrong shapes, injected poison) emits exactly the
    /// windows of a clean stream that saw only the valid observations —
    /// nothing dropped, duplicated or corrupted.
    #[test]
    fn window_buffer_survives_rejections_without_losing_windows(
        window_len in 2usize..10,
        ops in prop::collection::vec(0u32..4, 0..60),
    ) {
        let mut buf = WindowBuffer::new(window_cfg(window_len, 1)).unwrap();
        let mut clean = WindowBuffer::new(window_cfg(window_len, 1)).unwrap();
        let mut emitted = Vec::new();
        let mut clean_emitted = Vec::new();
        let mut i = 0usize; // valid observations ingested so far
        for op in ops {
            match op {
                // a valid observation, mirrored into the clean reference
                0 | 1 => {
                    let v = i as f64;
                    if let Some(w) = buf.push(&[v]).unwrap() { emitted.push(w); }
                    if let Some(w) = clean.push(&[v]).unwrap() { clean_emitted.push(w); }
                    i += 1;
                }
                // a NaN observation: rejected, buffer untouched
                2 => prop_assert!(buf.push(&[f64::NAN]).is_err()),
                // wrong channel count: rejected, buffer untouched
                3 => prop_assert!(buf.push(&[1.0, 2.0]).is_err()),
                _ => unreachable!(),
            }
            prop_assert_eq!(buf.observations(), clean.observations());
            prop_assert_eq!(buf.windows_emitted(), clean.windows_emitted());
        }
        // Injected poison behaves exactly like a real rejected push…
        mfod_faultline::install(mfod_faultline::FaultPlan::new(61).rule(
            mfod_faultline::points::STREAM_POISON,
            mfod_faultline::FaultRule::always().times(1),
        ));
        let poisoned = buf.push(&[i as f64]);
        mfod_faultline::disarm();
        prop_assert!(poisoned.is_err());
        // …and the stream still tracks the clean reference bit-for-bit.
        if let Some(w) = buf.push(&[i as f64]).unwrap() { emitted.push(w); }
        if let Some(w) = clean.push(&[i as f64]).unwrap() { clean_emitted.push(w); }
        prop_assert_eq!(buf.observations(), clean.observations());
        prop_assert_eq!(emitted.len(), clean_emitted.len());
        for (a, b) in emitted.iter().zip(&clean_emitted) {
            prop_assert_eq!(&a.channels, &b.channels);
            prop_assert_eq!(&a.t, &b.t);
        }
    }
}

/// One shared fitted pipeline + window set: proptest re-enters the test
/// body per case, and refitting a pipeline per case would dominate the
/// run time.
fn shared_fixture() -> &'static (Arc<FittedPipeline>, Vec<RawSample>) {
    static FIXTURE: OnceLock<(Arc<FittedPipeline>, Vec<RawSample>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let (fitted, train, _ts) = sine_pipeline(&FixtureConfig {
            n_samples: 30,
            m: 20,
            n_trees: 15,
            grid_len: 12,
        });
        (fitted, train)
    })
}

fn offline_scores() -> &'static Vec<f64> {
    static SCORES: OnceLock<Vec<f64>> = OnceLock::new();
    SCORES.get_or_init(|| {
        let (fitted, windows) = shared_fixture();
        fitted.score(windows).unwrap()
    })
}
