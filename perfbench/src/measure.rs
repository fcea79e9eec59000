//! Statistics over step timings, the run budget, the benchmark's own
//! input generator, correctness bookkeeping and host diagnostics read
//! from `/proc`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Linear-interpolated quantile `q` in `[0, 1]` of `values` (0 when empty).
pub fn quantile(values: &[u64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] as f64 + (sorted[hi] as f64 - sorted[lo] as f64) * frac
}

pub fn ns_to_ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Step wall times of every pass over one deterministic step sequence.
#[derive(Default)]
pub struct Passes {
    passes: Vec<Vec<u64>>,
}

impl Passes {
    pub fn push(&mut self, steps_ns: Vec<u64>) {
        if let Some(first) = self.passes.first() {
            assert_eq!(first.len(), steps_ns.len(), "passes replay the same steps");
        }
        self.passes.push(steps_ns);
    }

    pub fn count(&self) -> usize {
        self.passes.len()
    }

    pub fn steps(&self) -> u64 {
        self.passes.iter().map(|p| p.len() as u64).sum()
    }

    /// Fastest single step of the run, pooled over all passes, ms.
    pub fn step_ms_min(&self) -> f64 {
        let fastest = self.passes.iter().flatten().min().copied().unwrap_or(0);
        ns_to_ms(fastest as f64)
    }

    /// Sum over steps of each step's fastest time across passes, seconds.
    pub fn run_s(&self) -> f64 {
        let Some(first) = self.passes.first() else {
            return 0.0;
        };
        let total: u64 = (0..first.len())
            .map(|i| self.passes.iter().map(|p| p[i]).min().expect("one pass"))
            .sum();
        total as f64 / 1e9
    }
}

/// The measuring window: passes repeat until `seconds` of timed work are
/// done, and never fewer than `min_passes`.
pub struct Budget {
    limit: Duration,
    used: Duration,
    min_passes: usize,
}

impl Budget {
    pub fn new(seconds: u64, min_passes: usize) -> Self {
        Budget {
            limit: Duration::from_secs(seconds),
            used: Duration::ZERO,
            min_passes,
        }
    }

    pub fn charge(&mut self, spent: Duration) {
        self.used += spent;
    }

    pub fn another_pass(&self, done: usize) -> bool {
        done < self.min_passes || self.used < self.limit
    }
}

/// SplitMix64: the benchmark's own seeded input generator, independent of
/// the program's RNG so inputs stay fixed when the program changes.
pub struct Inputs(u64);

impl Inputs {
    pub fn new(seed: u64, stream: u64) -> Self {
        Inputs(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A seeded sample of `k` distinct values from `pool`, in draw order.
    pub fn sample(&mut self, pool: &[u32], k: usize) -> Vec<u32> {
        let mut pool = pool.to_vec();
        for i in 0..k {
            let j = i + self.below((pool.len() - i) as u64) as usize;
            pool.swap(i, j);
        }
        pool.truncate(k);
        pool
    }
}

/// Correctness bookkeeping: every failed check is kept (the first few are
/// printed to stderr) and turns `correct` false.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn eq<T: PartialEq + std::fmt::Debug>(&mut self, got: T, want: T, what: &str) {
        if got != want {
            self.failures
                .push(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn report(&self) {
        for f in self.failures.iter().take(20) {
            eprintln!("check failed: {f}");
        }
        if self.failures.len() > 20 {
            eprintln!("... {} more failed checks", self.failures.len() - 20);
        }
    }
}

/// Host diagnostics, read only from `/proc`; they move no metric but tell
/// a slow set of runs from a slow program.
pub struct Host {
    wait_ns: u64,
    minflt: u64,
    probes_ns: Vec<u64>,
}

fn read_proc(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Run-queue wait of this thread so far, ns (`/proc/thread-self/schedstat`).
fn wait_ns() -> u64 {
    read_proc("/proc/thread-self/schedstat")
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Minor page faults of this process so far (`/proc/self/stat`, field 10).
fn minflt() -> u64 {
    let stat = read_proc("/proc/self/stat");
    stat.rsplit_once(')')
        .and_then(|(_, rest)| rest.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process, MB (`VmHWM` in `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    read_proc("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fixed calibration loop: the same integer work on every run, so its
/// wall time tracks only how fast the host is running this thread.
fn probe_ns() -> u64 {
    let start = Instant::now();
    let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    u64::try_from(start.elapsed().as_nanos()).expect("probe shorter than 584 years")
}

impl Host {
    /// Probes the host and marks the start of the timed phase.
    pub fn start() -> Self {
        let probes_ns = (0..3).map(|_| probe_ns()).collect();
        Host {
            wait_ns: wait_ns(),
            minflt: minflt(),
            probes_ns,
        }
    }

    /// Probes again after the timed phase and returns
    /// `(host.wait_ms, host.probe_ms, host.minflt)`: run-queue wait and
    /// minor faults during the timed phase, and the median probe time.
    pub fn finish(mut self) -> (f64, f64, f64) {
        let wait = wait_ns().saturating_sub(self.wait_ns);
        let faults = minflt().saturating_sub(self.minflt);
        self.probes_ns.extend((0..3).map(|_| probe_ns()));
        let probe = quantile(&self.probes_ns, 0.5);
        (ns_to_ms(wait as f64), ns_to_ms(probe), faults as f64)
    }
}
