//! Owner-backed shared `f64` storage for zero-copy [`Matrix`] payloads.
//!
//! A [`SharedF64s`] is a read-only `[f64]` view whose memory is kept
//! alive by an opaque reference-counted owner (a memory-mapped snapshot
//! file, an aligned byte buffer) instead of a `Vec<f64>`. It is the
//! storage behind [`Matrix`] values decoded directly out of a mapped
//! model snapshot: the matrix serves reads straight from the map and the
//! map cannot be unmapped while any matrix still points into it, because
//! every view holds a clone of the owner `Arc`.
//!
//! [`Matrix`]: crate::Matrix

use std::any::Any;
use std::sync::Arc;

/// An opaque keep-alive handle: anything reference-counted, sendable and
/// shareable can own the bytes behind a view.
pub type SharedOwner = Arc<dyn Any + Send + Sync>;

/// A read-only `[f64]` slice plus the owner that keeps it alive.
///
/// Cloning is cheap (an `Arc` clone and a pointer copy) and never copies
/// the floats.
#[derive(Clone)]
pub struct SharedF64s {
    /// Keeps the pointed-to memory alive and pinned; dropped last.
    _owner: SharedOwner,
    ptr: *const f64,
    len: usize,
}

// SAFETY: the view is strictly read-only, the owner is `Send + Sync`,
// and the construction contract pins the memory for the owner's
// lifetime, so sharing the pointer across threads is no more than
// sharing a `&[f64]` borrowed from the owner.
unsafe impl Send for SharedF64s {}
unsafe impl Sync for SharedF64s {}

impl SharedF64s {
    /// Builds a view over `len` `f64`s starting at `ptr`, kept alive by
    /// `owner`.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that
    /// * `ptr` is aligned for `f64` and `ptr..ptr+len` is a single valid
    ///   allocation of initialized memory,
    /// * that memory is never written (by anyone) while `owner` or any
    ///   clone of this view is alive, and
    /// * the memory stays valid at a fixed address until `owner`'s last
    ///   clone drops (the owner must not move or free it earlier).
    pub unsafe fn from_raw_parts(owner: SharedOwner, ptr: *const f64, len: usize) -> Self {
        debug_assert!(len == 0 || !ptr.is_null());
        debug_assert!(
            (ptr as usize).is_multiple_of(std::mem::align_of::<f64>()),
            "unaligned"
        );
        SharedF64s {
            _owner: owner,
            ptr,
            len,
        }
    }

    /// The shared floats.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: upheld by the `from_raw_parts` contract — initialized,
        // immutable, alive as long as `_owner`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Number of `f64`s in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Debug for SharedF64s {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedF64s")
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(data: Vec<f64>) -> SharedF64s {
        let owner: Arc<Vec<f64>> = Arc::new(data);
        let (ptr, len) = (owner.as_ptr(), owner.len());
        // SAFETY: the Arc'd Vec is never mutated and outlives the view.
        unsafe { SharedF64s::from_raw_parts(owner, ptr, len) }
    }

    #[test]
    fn view_reads_owner_data() {
        let v = shared(vec![1.0, -0.0, f64::NAN]);
        assert_eq!(v.len(), 3);
        assert!(!v.is_empty());
        assert_eq!(v.as_slice()[0], 1.0);
        assert_eq!(v.as_slice()[1].to_bits(), (-0.0f64).to_bits());
        assert!(v.as_slice()[2].is_nan());
        assert!(format!("{v:?}").contains("len"));
    }

    #[test]
    fn clones_share_without_copying() {
        let v = shared((0..512).map(|i| i as f64).collect());
        let w = v.clone();
        assert_eq!(v.as_slice().as_ptr(), w.as_slice().as_ptr());
        drop(v);
        assert_eq!(w.as_slice()[511], 511.0);
    }

    #[test]
    fn owner_outlives_all_views_across_threads() {
        let v = shared(vec![2.5; 1024]);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let v = v.clone();
                std::thread::spawn(move || v.as_slice().iter().sum::<f64>())
            })
            .collect();
        drop(v);
        for h in handles {
            assert_eq!(h.join().unwrap(), 2.5 * 1024.0);
        }
    }
}
