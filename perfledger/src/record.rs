//! The run record: what a result was measured on, so noisy samples can be
//! told apart and numbers from different machines are never compared
//! blind. Everything here is read from `/proc` or the checkout; a value
//! that cannot be read is reported as unavailable, never guessed.

use std::path::Path;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

pub fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8) // user nice system idle iowait irq softirq steal
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    (fields.len() == 8).then(|| CpuTimes {
        total: fields.iter().sum(),
        steal: fields[7],
    })
}

/// Share of host CPU time stolen by the hypervisor between two readings.
pub fn steal_share(before: Option<CpuTimes>, after: Option<CpuTimes>) -> Option<f64> {
    let (b, a) = (before?, after?);
    let total = a.total.checked_sub(b.total)?;
    (total > 0).then(|| a.steal.saturating_sub(b.steal) as f64 / total as f64)
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mountinfo`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unavailable".into();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unavailable".into();
    };
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let mut halves = line.split(" - ");
        let (Some(left), Some(right)) = (halves.next(), halves.next()) else {
            continue;
        };
        let (Some(mount), Some(fs)) = (left.split(' ').nth(4), right.split(' ').next()) else {
            continue;
        };
        if path.starts_with(mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), fs.to_string()));
        }
    }
    best.map_or_else(|| "unavailable".into(), |(_, fs)| fs)
}

/// First line of a command's standard output, if it ran and succeeded.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    out.status
        .success()
        .then(|| text.lines().next().unwrap_or("").trim().to_string())
}

pub fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unavailable".into())
}

/// The commit of the checkout, when it is a git repository.
pub fn git_commit() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unavailable".into())
}

/// FNV-1a digest of the library sources (`crates/**/*.rs`, every
/// `Cargo.toml`, the root manifest and lock file) — identifies the code
/// measured even where the checkout carries no git metadata.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|n| n == "Cargo.toml")
            {
                out.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = mfod_persist::Fnv1a::new();
    let mut read = 0usize;
    for file in &files {
        if let Ok(bytes) = std::fs::read(file) {
            h.update(file.to_string_lossy().as_bytes()).update(&bytes);
            read += 1;
        }
    }
    if read <= 2 {
        return "unavailable".into();
    }
    format!("{:016x} ({read} files)", h.finish())
}
