//! Small statistics and system helpers.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile, `q` in `[0, 1]`.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The highest percentile that still has at least ten samples above it,
/// as `(percentile, value)`. With fewer than 20 samples it is the median.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n == 0 {
        return (50.0, 0.0);
    }
    let q = ((n.saturating_sub(10)) as f64 / n as f64).max(0.5);
    let pct = (q * 100.0).floor();
    (pct, quantile(v, pct / 100.0))
}

/// A machine-speed probe that runs in a child process (this binary with
/// `--probe-child`), so its memory and allocator stay out of the measured
/// process: the child builds a 32 MiB pointer chain once, then times one
/// pointer chase plus a small hash-map build for each request.
pub struct Probe {
    child: Child,
    stdout: BufReader<ChildStdout>,
}

impl Probe {
    pub fn start() -> std::io::Result<Probe> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--probe-child")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Probe { child, stdout })
    }

    /// Times one probe in the child (ns).
    pub fn time_ns(&mut self) -> Result<f64, String> {
        let stdin = self.child.stdin.as_mut().expect("piped stdin");
        stdin
            .write_all(b"\n")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("probe: {e}"))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("probe: {e}"))?;
        line.trim()
            .parse()
            .map_err(|e| format!("probe answered {line:?}: {e}"))
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // Closing its stdin ends the child.
        drop(self.child.stdin.take());
        let _ = self.child.wait();
    }
}

/// The child side of [`Probe`]: answers each line on stdin with the time
/// of one probe.
pub fn probe_child() {
    let n = 8 << 20;
    // One cycle through a random permutation (Sattolo).
    let mut chain: Vec<u32> = (0..n as u32).collect();
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for i in (1..n).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x % i as u64) as usize;
        chain.swap(i, j);
    }
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
        let t = std::time::Instant::now();
        let mut p = 0u32;
        for _ in 0..50_000 {
            p = chain[p as usize];
        }
        let mut m = std::collections::HashMap::new();
        for i in 0..2_000u32 {
            m.insert(format!("series-{i}-{p}"), i);
        }
        std::hint::black_box((&m, p));
        if writeln!(out, "{}", t.elapsed().as_nanos())
            .and_then(|()| out.flush())
            .is_err()
        {
            break;
        }
    }
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, val) = tail(&v);
        assert_eq!(pct, 90.0);
        assert!(v.iter().filter(|x| **x > val).count() >= 10);
        assert_eq!(tail(&v[..15]).0, 50.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }
}
