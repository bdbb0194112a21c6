//! Measurement helpers: order statistics, the process memory high-water
//! mark, ranking digests, and the in-memory span trace.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest whole percentile that still has at least ten samples
/// above it, with its nearest-rank value: `(percentile, value)`. With
/// fewer than twenty samples that is the median.
pub fn tail(xs: &[f64]) -> (u32, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut pct = 50;
    for p in (50..100u32).rev() {
        let rank = (p as usize * n).div_ceil(100).max(1);
        if n - rank >= 10 {
            pct = p;
            break;
        }
    }
    let rank = (pct as usize * n).div_ceil(100).max(1);
    (pct, v[rank - 1])
}

/// Milliseconds in `d`, with every digit kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Hands heap memory that set-up freed back to the kernel, then resets
/// the kernel's resident-set high-water mark to the current resident
/// set, so a later [`peak_rss_mb`] covers only what follows. Returns
/// false where the kernel does not offer the reset.
pub fn reset_peak_rss() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be
        // called from any thread at any time; it only releases free
        // pages of the allocator's own arenas.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// The current resident set (`VmRSS`) in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// FNV-1a over a byte stream: the ranking digest the correctness gate
/// compares.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// A deterministic permutation of `0..n` from `seed` (splitmix64 driving
/// a Fisher-Yates shuffle).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// One recorded span: a call into a layer, timed from the benchmark.
struct Span {
    name: &'static str,
    layer: &'static str,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    query: Option<u64>,
}

/// Spans kept in memory for the traced phase and written out at exit.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Times `f` as a root span of `layer`, returning its result and span
    /// id (see [`Trace::set_parent`] to nest it afterwards).
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        query: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        (out, self.record(layer, name, start, end, None, query))
    }

    /// Records a span whose bounds were measured elsewhere (for example a
    /// server-side interval reported back to the client).
    pub fn record(
        &mut self,
        layer: &'static str,
        name: &'static str,
        start: Duration,
        end: Duration,
        parent: Option<usize>,
        query: Option<u64>,
    ) -> usize {
        self.spans.push(Span {
            name,
            layer,
            start,
            end,
            parent,
            query,
        });
        self.spans.len() - 1
    }

    /// Makes span `child` a child of `parent` (for a parent span that is
    /// recorded only once it closes, after its children).
    pub fn set_parent(&mut self, child: usize, parent: usize) {
        self.spans[child].parent = Some(parent);
    }

    /// Time since the trace's epoch (for spans recorded after the fact).
    pub fn now(&self) -> Duration {
        self.epoch.elapsed()
    }

    /// `t` as an offset from the trace's epoch.
    pub fn at(&self, t: Instant) -> Duration {
        t.saturating_duration_since(self.epoch)
    }

    /// Seconds of self time per layer — each span's duration minus the
    /// part its children cover — in first-seen layer order.
    pub fn self_seconds(&self) -> Vec<(&'static str, f64)> {
        let mut child = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end.saturating_sub(s.start);
            }
        }
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (i, s) in self.spans.iter().enumerate() {
            let own = s
                .end
                .saturating_sub(s.start)
                .saturating_sub(child[i])
                .as_secs_f64();
            match out.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, t)) => *t += own,
                None => out.push((s.layer, own)),
            }
        }
        out
    }

    /// Total seconds of the spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end.saturating_sub(s.start).as_secs_f64())
            .sum()
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"layer\":\"{}\",\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\
                 \"parent\":{},\"query\":{}}}",
                s.layer,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.query.map_or("null".into(), |q| q.to_string()),
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90, 90.0));
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&few).0, 50);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = permutation(50, 7);
        assert_eq!(a, permutation(50, 7));
        assert_ne!(a, permutation(50, 8));
        let mut s = a.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Trace::new();
        let s = |ms| Duration::from_millis(ms);
        let p = t.record("a", "outer", s(0), s(10), None, None);
        t.record("b", "inner", s(2), s(6), Some(p), None);
        let got = t.self_seconds();
        assert_eq!(got[0].0, "a");
        assert!((got[0].1 - 0.006).abs() < 1e-9);
        assert!((got[1].1 - 0.004).abs() < 1e-9);
    }
}
