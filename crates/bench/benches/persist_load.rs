//! Install cost of a snapshot through the one container reader
//! (`LazySnapshot`), read-and-decode-everything vs a lazy mapped open, on
//! tenant-fleet snapshots at 1×/8×/64× ECG scale.
//!
//! **Eager install** reads the file into an owned buffer, opens it
//! ([`LazySnapshot::open`]: magic/version/table/CRC), decodes every
//! section into owned matrices and digest-verifies every tenant. It is
//! O(file) several times over — read, CRC, copy-decode, digest.
//!
//! **Lazy install** maps the file and opens it through the same reader
//! ([`LazySnapshot::open_shared`]), decoding *nothing*. The only O(file)
//! term left is the single CRC scan over the mapped pages; section
//! decode is deferred to first touch, which the report times separately
//! per touched tenant.
//!
//! Parity is asserted before anything is timed: the digest of every
//! touched tenant must be bit-identical across both installs (and to
//! the generator), at every scale. The report also counts **copied heap
//! bytes** per install — on a little-endian unix target the mapped
//! open's aligned tenant sections decode as borrowed views, so its
//! copied-bytes column stays at zero while the eager install copies the
//! full payload.
//!
//! The report is written to `BENCH_persist.json` (override with
//! `MFOD_BENCH_JSON`) for the `bench_ratchet` gate in CI: the lazy open
//! must stay ≥5× faster than the full read-and-decode at 64× scale, and
//! its growth from 1× to 64× must stay sublinear in file size.

use criterion::{criterion_group, criterion_main, is_test_mode, Criterion};
use mfod_fixtures::persist::{
    decode_fleet_eager, matrix_digest, tenant_matrix, tenant_section_id, write_tenant_fleet,
    TenantFleetConfig,
};
use mfod_linalg::Matrix;
use mfod_persist::{LazySnapshot, SharedBytes};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Scale multipliers benchmarked (tenant count scales linearly).
const SCALES: [usize; 3] = [1, 8, 64];

fn fleet_file(dir: &Path, scale: usize) -> (PathBuf, TenantFleetConfig) {
    let config = TenantFleetConfig::ecg_scale(scale);
    let path = dir.join(format!("fleet-{scale}x.mfod"));
    write_tenant_fleet(&path, &config).unwrap();
    (path, config)
}

/// Eager install: read, open, decode and digest-verify every tenant.
/// Returns the digests so parity can be checked against the lazy open.
fn eager_install(path: &Path) -> Vec<u64> {
    let bytes = std::fs::read(path).unwrap();
    let fleet = decode_fleet_eager(&bytes).unwrap();
    fleet.iter().map(matrix_digest).collect()
}

/// Lazy install: map + open once, decode nothing.
fn lazy_install(path: &Path) -> usize {
    let shared = SharedBytes::map(path).unwrap();
    let snap = LazySnapshot::open_shared(&shared).unwrap();
    snap.section_ids().len()
}

/// Min-of-reps wall clock for `work`.
fn time<R>(reps: usize, work: impl Fn() -> R) -> Duration {
    black_box(work()); // warm-up (and page-cache priming, same for both installs)
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            black_box(work());
            t0.elapsed()
        })
        .min()
        .unwrap()
}

fn bench_tiers(c: &mut Criterion) {
    let dir = std::env::temp_dir().join(format!("mfod-bench-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let scale = if is_test_mode() { 1 } else { 8 };
    let (path, _) = fleet_file(&dir, scale);
    let mut g = c.benchmark_group("persist_load");
    if !is_test_mode() {
        g.sample_size(10);
    }
    g.bench_function("eager_install", |b| b.iter(|| eager_install(&path).len()));
    g.bench_function("lazy_install", |b| b.iter(|| lazy_install(&path)));
    g.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// Explicit eager-vs-lazy report across scales, with the parity gate and
/// the `BENCH_persist.json` artifact for CI.
fn report_tiers(_c: &mut Criterion) {
    let smoke = is_test_mode();
    let reps = if smoke { 1 } else { 5 };
    let scales: Vec<usize> = if smoke {
        vec![1, 2, 4]
    } else {
        SCALES.to_vec()
    };
    let dir = std::env::temp_dir().join(format!("mfod-bench-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    let mut file_bytes = Vec::new();
    let mut eager_ms = Vec::new();
    let mut lazy_ms = Vec::new();
    let mut touch_ms = Vec::new();
    let mut lazy_copied = Vec::new();
    let mut eager_payload = Vec::new();

    for &scale in &scales {
        let (path, config) = fleet_file(&dir, scale);
        let len = std::fs::metadata(&path).unwrap().len();

        // ---- parity before timing: every touched tenant digests
        // bit-identically across installs and against the generator -----
        let eager_digests = eager_install(&path);
        assert_eq!(eager_digests.len(), config.tenants);
        let shared = SharedBytes::map(&path).unwrap();
        let snap = LazySnapshot::open_shared(&shared).unwrap();
        for i in [0, config.tenants / 2, config.tenants - 1] {
            let m: &Matrix = snap.section_value(tenant_section_id(i)).unwrap();
            assert_eq!(matrix_digest(m), eager_digests[i], "tenant {i} digest");
            assert_eq!(
                matrix_digest(&tenant_matrix(&config, i)),
                eager_digests[i],
                "tenant {i} generator digest"
            );
        }

        // copied heap bytes per install: eager owns the whole payload,
        // lazy serves aligned sections as borrowed views
        let payload: u64 = (config.tenants * config.rows * config.cols * 8) as u64;
        let copied: u64 = [0, config.tenants / 2, config.tenants - 1]
            .iter()
            .map(|&i| {
                let m: &Matrix = snap.section_value(tenant_section_id(i)).unwrap();
                if m.is_borrowed() {
                    0
                } else {
                    (m.nrows() * m.ncols() * 8) as u64
                }
            })
            .sum();
        drop(snap);
        drop(shared);

        // ---- timings ---------------------------------------------------
        let t_eager = time(reps, || eager_install(&path).len());
        let t_lazy = time(reps, || lazy_install(&path));
        // open plus first touch of one tenant, over a fresh open each rep
        let t_touch = time(reps, || {
            let shared = SharedBytes::map(&path).unwrap();
            let snap = LazySnapshot::open_shared(&shared).unwrap();
            let m: &Matrix = snap.section_value(tenant_section_id(0)).unwrap();
            matrix_digest(m)
        });

        file_bytes.push(len);
        eager_ms.push(t_eager.as_secs_f64() * 1e3);
        lazy_ms.push(t_lazy.as_secs_f64() * 1e3);
        touch_ms.push(t_touch.as_secs_f64() * 1e3);
        lazy_copied.push(copied);
        eager_payload.push(payload);

        println!(
            "persist/load {scale:>2}x: {len:>9} B · eager {:>8.3} ms · lazy open {:>8.3} ms · \
             open+first-touch {:>8.3} ms · lazy copied {copied} B (eager {payload} B)",
            t_eager.as_secs_f64() * 1e3,
            t_lazy.as_secs_f64() * 1e3,
            t_touch.as_secs_f64() * 1e3,
        );
    }
    std::fs::remove_dir_all(&dir).ok();

    let last = scales.len() - 1;
    let speedup_top = eager_ms[last] / lazy_ms[last].max(1e-9);
    let lazy_growth = lazy_ms[last] / lazy_ms[0].max(1e-9);
    let eager_growth = eager_ms[last] / eager_ms[0].max(1e-9);
    let size_growth = file_bytes[last] as f64 / file_bytes[0] as f64;
    println!(
        "persist/load: top-scale speedup {speedup_top:.1}x · lazy growth {lazy_growth:.1}x vs \
         eager growth {eager_growth:.1}x over a {size_growth:.0}x size range"
    );

    let json = format!(
        "{{\n  \"bench\": \"persist_load\",\n  \
         \"scales\": [{}],\n  \"file_bytes\": [{}],\n  \
         \"eager_ms\": [{}],\n  \"lazy_ms\": [{}],\n  \"open_touch_ms\": [{}],\n  \
         \"eager_payload_bytes\": [{}],\n  \"lazy_copied_bytes\": [{}],\n  \
         \"speedup_top\": {speedup_top:.3},\n  \"lazy_growth\": {lazy_growth:.3},\n  \
         \"eager_growth\": {eager_growth:.3},\n  \"size_growth\": {size_growth:.3},\n  \
         \"parity\": \"bit-identical\",\n  \"smoke\": {smoke}\n}}\n",
        scales
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        file_bytes
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        eager_ms
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        lazy_ms
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        touch_ms
            .iter()
            .map(|v| format!("{v:.4}"))
            .collect::<Vec<_>>()
            .join(", "),
        eager_payload
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
        lazy_copied
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    );
    let path =
        std::env::var("MFOD_BENCH_JSON").unwrap_or_else(|_| "BENCH_persist.json".to_string());
    std::fs::write(&path, json)
        .unwrap_or_else(|e| panic!("persist_load: could not write {path}: {e}"));
    println!("persist/load: report written to {path}");
}

criterion_group!(benches, bench_tiers, report_tiers);
criterion_main!(benches);
