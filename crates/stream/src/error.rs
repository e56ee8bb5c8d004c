//! Error type of the online scoring subsystem.

use std::fmt;

/// Errors raised by the streaming layer.
#[derive(Debug)]
pub enum StreamError {
    /// Invalid streaming configuration (window geometry, batch sizing, …).
    Config(String),
    /// An observation does not fit the configured stream shape.
    Ingest(String),
    /// The underlying pipeline rejected or failed on a window.
    Pipeline(mfod::MfodError),
    /// Scoring panicked. The batch stays in the pending queue; the scorer
    /// itself stays usable.
    ScorePanicked(String),
    /// `max_flush_retries` consecutive flushes failed on this batch; the
    /// batcher refuses further attempts until the pending windows are
    /// drained (`take_pending`) or, at the
    /// [`OnlineScorer`](crate::OnlineScorer) level, quarantined.
    FlushRetriesExhausted {
        /// Consecutive failed flush attempts.
        attempts: u32,
        /// Display of the error from the final attempt.
        last_error: String,
    },
    /// The scorer quarantined its pending batch after exhausting flush
    /// retries. The windows are retrievable via
    /// `OnlineScorer::drain_quarantine`; the scorer stays live.
    Quarantined {
        /// Windows moved into quarantine.
        windows: usize,
        /// Sequence number of the first quarantined window.
        first_seq: u64,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Config(msg) => write!(f, "stream config: {msg}"),
            StreamError::Ingest(msg) => write!(f, "stream ingest: {msg}"),
            // No prefix: the MfodError Display already names its stage
            // ("pipeline: …"), and doubling it reads badly.
            StreamError::Pipeline(e) => write!(f, "{e}"),
            StreamError::ScorePanicked(msg) => {
                write!(f, "stream scoring panicked: {msg}")
            }
            StreamError::FlushRetriesExhausted {
                attempts,
                last_error,
            } => write!(
                f,
                "stream flush gave up after {attempts} consecutive failures \
                 (last: {last_error}); drain or quarantine the pending batch"
            ),
            StreamError::Quarantined { windows, first_seq } => write!(
                f,
                "stream quarantine: {windows} windows (first seq {first_seq}) \
                 moved to quarantine after repeated flush failures"
            ),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Pipeline(e) => Some(e),
            _ => None,
        }
    }
}

impl From<mfod::MfodError> for StreamError {
    fn from(e: mfod::MfodError) -> Self {
        StreamError::Pipeline(e)
    }
}

impl From<mfod_fda::FdaError> for StreamError {
    fn from(e: mfod_fda::FdaError) -> Self {
        StreamError::Pipeline(mfod::MfodError::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_source() {
        let c = StreamError::Config("bad".into());
        assert!(c.to_string().contains("bad"));
        assert!(c.source().is_none());
        let p = StreamError::from(mfod::MfodError::Pipeline("boom".into()));
        assert!(p.to_string().contains("boom"));
        assert!(p.source().is_some());
    }

    #[test]
    fn failure_variants_display_their_context() {
        let s = StreamError::ScorePanicked("kaboom".into());
        assert!(s.to_string().contains("kaboom"), "{s}");
        assert!(s.source().is_none());
        let r = StreamError::FlushRetriesExhausted {
            attempts: 4,
            last_error: "io".into(),
        };
        assert!(r.to_string().contains("4 consecutive"), "{r}");
        let q = StreamError::Quarantined {
            windows: 2,
            first_seq: 7,
        };
        assert!(q.to_string().contains("first seq 7"), "{q}");
    }
}
