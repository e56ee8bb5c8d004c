//! Memory-mapped snapshot bytes and the owner-pinned [`SharedBytes`]
//! buffer a container is opened over for zero-copy decoding
//! ([`crate::format::LazySnapshot::open_shared`],
//! [`crate::format::from_shared`]).
//!
//! A [`SharedBytes`] is a read-only byte view kept alive by a
//! reference-counted owner — on unix a real `mmap(2)` of the snapshot
//! file (direct `extern "C"` FFI, no third-party crate), elsewhere an
//! 8-aligned heap copy of the file.
//! Decoded [`SharedF64s`] matrix payloads hold clones of the owner `Arc`,
//! so the mapping cannot be unmapped while anything still points into
//! it: a `ModelRegistry` entry whose matrices borrow the map keeps the
//! map alive by itself.
//!
//! ## Safety argument
//!
//! The mapping is `PROT_READ` + `MAP_PRIVATE`: nothing in this process
//! can write through it, and writes by other processes to the underlying
//! file are not propagated into a private mapping that has already been
//! touched. Snapshot files are written atomically (temp file + rename,
//! see [`crate::format::save_bytes`]) and never modified in place, so a
//! mapped snapshot does not change or shrink under us — truncating a
//! *live* snapshot file out from under a reader is outside the format's
//! contract, exactly as it is for `std::fs::read`.
//!
//! ## Fallback behavior
//!
//! On non-unix targets (or for empty files, which `mmap` rejects),
//! [`SharedBytes::map`] falls back to reading the file into an 8-aligned
//! heap buffer via [`SharedBytes::from_vec`]. Every downstream behavior
//! is identical — the same validation, the same zero-copy `Matrix` views
//! (alignment permitting) — only the page-cache sharing between
//! processes is lost.

use crate::error::PersistError;
use crate::Result;
use mfod_linalg::{SharedF64s, SharedOwner};
use std::path::Path;
use std::sync::Arc;

/// A read-only byte buffer pinned by a reference-counted owner: a mapped
/// snapshot file or an aligned heap copy. Cloning is O(1) and never
/// copies the payload.
#[derive(Clone)]
pub struct SharedBytes {
    owner: SharedOwner,
    ptr: *const u8,
    len: usize,
}

// SAFETY: the view is strictly read-only, the owner is `Send + Sync`,
// and construction pins the memory at a fixed address for the owner's
// lifetime — sharing the pointer across threads is equivalent to
// sharing a `&[u8]` borrowed from the owner.
unsafe impl Send for SharedBytes {}
unsafe impl Sync for SharedBytes {}

impl SharedBytes {
    /// Maps the file at `path` read-only. Real `mmap` on unix; an
    /// aligned heap copy elsewhere (and for empty files).
    pub fn map(path: &Path) -> Result<SharedBytes> {
        let io = |source| PersistError::Io {
            path: path.to_path_buf(),
            source,
        };
        if mfod_faultline::should_fire(mfod_faultline::points::PERSIST_READ) {
            return Err(io(std::io::Error::other("injected fault: persist.read")));
        }
        #[cfg(unix)]
        {
            if mfod_faultline::should_fire(mfod_faultline::points::PERSIST_MMAP) {
                // Injected mmap failure: take the owned-read fallback the
                // non-unix tier uses; downstream behavior is identical.
                return Ok(SharedBytes::from_vec(std::fs::read(path).map_err(io)?));
            }
            let mapped = mmap_impl::MappedFile::open(path).map_err(io)?;
            match mapped {
                Some(m) => {
                    let (ptr, len) = (m.as_ptr(), m.len());
                    Ok(SharedBytes {
                        owner: Arc::new(m),
                        ptr,
                        len,
                    })
                }
                // mmap rejects zero-length mappings; an empty buffer
                // needs no owner pinning anyway
                None => Ok(SharedBytes::from_vec(Vec::new())),
            }
        }
        #[cfg(not(unix))]
        {
            Ok(SharedBytes::from_vec(std::fs::read(path).map_err(io)?))
        }
    }

    /// Wraps owned bytes, copying them into an 8-aligned buffer so the
    /// zero-copy `f64` views work exactly as they do over a mapping
    /// (which is page-aligned).
    pub fn from_vec(bytes: Vec<u8>) -> SharedBytes {
        let len = bytes.len();
        let words = len.div_ceil(8);
        let mut buf = vec![0u64; words];
        // SAFETY: the destination holds `words * 8 >= len` bytes and the
        // ranges cannot overlap (distinct allocations).
        unsafe {
            std::ptr::copy_nonoverlapping(bytes.as_ptr(), buf.as_mut_ptr().cast::<u8>(), len);
        }
        let owner: Arc<Vec<u64>> = Arc::new(buf);
        let ptr = owner.as_ptr().cast::<u8>();
        SharedBytes { owner, ptr, len }
    }

    /// The shared bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        // SAFETY: upheld by construction — initialized, immutable, alive
        // and pinned as long as `owner`.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }

    /// Number of bytes in the view.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the view is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A clone of the keep-alive owner handle, for building views
    /// (e.g. [`SharedF64s`]) that must pin this memory themselves.
    pub fn owner_handle(&self) -> SharedOwner {
        Arc::clone(&self.owner)
    }

    /// A zero-copy `f64` view over `count` values starting at byte
    /// `offset`, if the platform and layout allow it: little-endian
    /// target (the wire format is LE), in-bounds, and 8-byte aligned.
    /// Returns `None` — never an error — when the caller should fall
    /// back to copying.
    pub fn f64s_at(&self, offset: usize, count: usize) -> Option<SharedF64s> {
        if cfg!(not(target_endian = "little")) {
            return None;
        }
        let bytes = count.checked_mul(8)?;
        if offset.checked_add(bytes)? > self.len {
            return None;
        }
        // SAFETY: offset is in bounds per the check above.
        let ptr = unsafe { self.ptr.add(offset) };
        if !(ptr as usize).is_multiple_of(std::mem::align_of::<f64>()) {
            return None;
        }
        // SAFETY: in-bounds, aligned, initialized, read-only and pinned
        // by the owner handle passed in.
        Some(unsafe { SharedF64s::from_raw_parts(self.owner_handle(), ptr.cast::<f64>(), count) })
    }
}

impl std::fmt::Debug for SharedBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedBytes")
            .field("len", &self.len)
            .finish()
    }
}

#[cfg(unix)]
mod mmap_impl {
    use std::ffi::c_void;
    use std::os::unix::io::AsRawFd;
    use std::path::Path;

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    /// A read-only private mapping of a whole file, unmapped on drop.
    pub(super) struct MappedFile {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ and fixed for the struct's
    // lifetime; no interior mutability.
    unsafe impl Send for MappedFile {}
    unsafe impl Sync for MappedFile {}

    impl MappedFile {
        /// Maps `path` read-only. `Ok(None)` means the file is empty
        /// (mmap rejects zero-length mappings).
        pub(super) fn open(path: &Path) -> std::io::Result<Option<MappedFile>> {
            let file = std::fs::File::open(path)?;
            let len = file.metadata()?.len();
            let len = usize::try_from(len).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "file exceeds address space",
                )
            })?;
            if len == 0 {
                return Ok(None);
            }
            // SAFETY: a fresh anonymous-address read-only mapping of a
            // file descriptor we own for the duration of the call; the
            // kernel validates everything else and reports MAP_FAILED.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(std::io::Error::last_os_error());
            }
            if let Some(m) = mfod_obs::active() {
                m.persist_mapped_bytes.add(len as u64);
            }
            Ok(Some(MappedFile { ptr, len }))
        }

        pub(super) fn as_ptr(&self) -> *const u8 {
            self.ptr.cast::<u8>().cast_const()
        }

        pub(super) fn len(&self) -> usize {
            self.len
        }
    }

    impl Drop for MappedFile {
        fn drop(&mut self) {
            // SAFETY: `ptr`/`len` are exactly what mmap returned; the
            // mapping is unmapped at most once. Failure is unrecoverable
            // and ignorable (the address range simply stays reserved).
            unsafe {
                munmap(self.ptr, self.len);
            }
            // The gauge saturates at zero, so a release racing a
            // recorder toggle or reset cannot wrap the level.
            if let Some(m) = mfod_obs::active() {
                m.persist_mapped_bytes.sub(self.len as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_is_aligned_and_faithful() {
        for n in [0usize, 1, 7, 8, 9, 4096] {
            let data: Vec<u8> = (0..n).map(|i| (i * 37 % 251) as u8).collect();
            let shared = SharedBytes::from_vec(data.clone());
            assert_eq!(shared.as_slice(), &data[..]);
            assert_eq!(shared.len(), n);
            assert_eq!(shared.is_empty(), n == 0);
            if n > 0 {
                assert_eq!(shared.as_slice().as_ptr() as usize % 8, 0);
            }
        }
    }

    #[test]
    fn map_reads_real_files_and_types_missing_ones() {
        let dir = std::env::temp_dir().join(format!("mfod-map-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("payload.bin");
        let data: Vec<u8> = (0..10_000u32).flat_map(|i| i.to_le_bytes()).collect();
        std::fs::write(&path, &data).unwrap();
        let shared = SharedBytes::map(&path).unwrap();
        assert_eq!(shared.as_slice(), &data[..]);
        assert_eq!(shared.as_slice().as_ptr() as usize % 8, 0, "page-aligned");

        let empty = dir.join("empty.bin");
        std::fs::write(&empty, b"").unwrap();
        assert!(SharedBytes::map(&empty).unwrap().is_empty());

        assert!(matches!(
            SharedBytes::map(&dir.join("missing.bin")),
            Err(PersistError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn f64_views_require_alignment_and_bounds() {
        let mut bytes = Vec::new();
        for v in [1.5f64, -0.0, f64::NAN] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let shared = SharedBytes::from_vec(bytes);
        let view = shared.f64s_at(0, 3).expect("aligned view");
        assert_eq!(view.as_slice()[0], 1.5);
        assert_eq!(view.as_slice()[1].to_bits(), (-0.0f64).to_bits());
        assert!(view.as_slice()[2].is_nan());
        // misaligned start and out-of-bounds runs fall back to None
        assert!(shared.f64s_at(4, 1).is_none());
        assert!(shared.f64s_at(0, 4).is_none());
        assert!(shared.f64s_at(usize::MAX, 1).is_none());
    }
}
