//! Measurement plumbing shared by every workload: the metric list a run
//! prints, quantiles, peak RSS, the schedule digest, and the in-memory
//! span recorder of the traced run.

use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Ordered metric list of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.retain(|m| m.name != name);
        self.0.push(Metric { name, value, unit });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, m) in self.0.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        s.push('}');
        s
    }
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted floats (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// The best of a run's repetitions, each `(throughput /s, p50 ms, p99 ms)`:
/// the highest throughput and the lowest p50 and p99. Every repetition
/// does the same work, and the host (other tenants of a 2-vCPU virtual
/// machine stealing CPU in bursts of seconds) only ever slows one down,
/// so the best repetition is the least disturbed one; a code change that
/// slows every repetition still moves it.
pub fn best(reps: &[(f64, f64, f64)]) -> (f64, f64, f64) {
    reps.iter()
        .fold((0.0, f64::INFINITY, f64::INFINITY), |(t, a, b), r| {
            (t.max(r.0), a.min(r.1), b.min(r.2))
        })
}

/// Mean of `total` over `count` (0 when `count` is 0).
pub fn mean(total: f64, count: f64) -> f64 {
    if count > 0.0 {
        total / count
    } else {
        0.0
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// FNV-1a, as a `Hasher`, so any `Hash` value digests the same way on
/// every run and platform of the same build.
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 ^= u64::from(*b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest of a schedule: FNV-1a over every action's `Hash` encoding.
pub fn digest<T: Hash>(items: &[T]) -> u64 {
    let mut h = Fnv::default();
    items.hash(&mut h);
    h.finish()
}

/// Derive the `k`-th sub-seed of a run seed (SplitMix64 finaliser).
pub fn sub_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x5EED);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One benchmark-side span: a layer call timed from outside.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder of the traced run. Spans are kept up to a
/// fixed cap (the aggregates each workload reports are computed from
/// every call, not from the kept spans) and written out once at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

/// Spans kept per run: enough for every slot, sweep and sampled op of a
/// 60-s run, small enough to stay well under 100 MB.
const SPAN_CAP: usize = 400_000;

/// Id of "no parent".
pub const ROOT: u32 = u32::MAX;

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            dropped: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its id (for children), or `ROOT`
    /// when the cap dropped it.
    pub fn record(&mut self, name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> u32 {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Open a span whose end is filled in by [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let t = self.now_ns();
        self.record(name, parent, t, t)
    }

    pub fn close(&mut self, id: u32) {
        let t = self.now_ns();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = t;
        }
    }

    /// Write every kept span as one JSON line each:
    /// `{"id", "name", "parent", "start_ns", "end_ns"}` (parent -1 = root).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "{{\"dropped_spans\": {}}}", self.dropped)?;
        w.flush()
    }

    pub fn kept(&self) -> usize {
        self.spans.len()
    }
}
