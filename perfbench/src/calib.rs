//! Calibration against the speed of the machine at the moment.
//!
//! The benchmark may share a small virtual machine with other tenants,
//! whose speed then flips between states a third apart within seconds
//! and drifts over minutes. A fixed CPU kernel owned by the benchmark
//! (sorting and map inserts over a seeded stream: nothing the
//! repository's code can change) is timed after set-up and after every
//! measured window of about half a second, while nothing the benchmark
//! measures runs: no compile in process, no request at the server. Each
//! window's times are scaled to what they would be when the kernel takes
//! [`REFERENCE_US`], by the mean of the kernel times before and after
//! it.
//!
//! Every run writes its raw window figures with their factors to a
//! record file (see [`Calibration::write`]) and prints the raw summary
//! on stderr, so any reported value can be traced back.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::stats::{median, Windows};

/// The kernel time the reported times are scaled to, in µs.
pub const REFERENCE_US: f64 = 330.0;

/// How long one calibration measurement runs.
const SPAN: Duration = Duration::from_millis(20);

/// Times one run of the calibration kernel, in µs.
fn kernel_us() -> f64 {
    let t = Instant::now();
    let mut x = 0x1234_5678_9abc_def0u64;
    let mut v: Vec<u64> = Vec::with_capacity(2048);
    let mut m = BTreeMap::new();
    for i in 0..8192u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push(x);
        if i % 4 == 0 {
            m.insert(x >> 40, i);
        }
        if v.len() == v.capacity() {
            v.sort_unstable();
            black_box(&v);
            v.clear();
        }
    }
    black_box((&m, x));
    t.elapsed().as_secs_f64() * 1e6
}

/// Median kernel time over repeated runs for [`SPAN`], in µs. Call it
/// only while nothing that is measured runs.
pub fn measure() -> f64 {
    let until = Instant::now() + SPAN;
    let mut v = vec![kernel_us()];
    while Instant::now() < until {
        v.push(kernel_us());
    }
    median(&mut v)
}

/// The calibration of one untraced run: the kernel times taken between
/// its windows, and each window's figures, raw and scaled.
pub struct Calibration {
    kernel_us: Vec<f64>,
    /// Window figures as measured.
    pub raw: Windows,
    /// Window figures scaled to reference speed.
    pub scaled: Windows,
    record: String,
}

impl Calibration {
    /// Takes the first kernel measurement, before anything is measured.
    pub fn start() -> Calibration {
        Calibration {
            kernel_us: vec![measure()],
            raw: Windows::default(),
            scaled: Windows::default(),
            record: String::new(),
        }
    }

    /// Takes the kernel measurement that ends a window and returns the
    /// window's factor: reference over the mean of the kernel times
    /// before and after it. Times are multiplied by it.
    pub fn mark(&mut self) -> f64 {
        let before = *self.kernel_us.last().expect("started with one");
        let after = measure();
        self.kernel_us.push(after);
        REFERENCE_US / ((before + after) / 2.0)
    }

    /// Records set-up time `setup_s`, scaled by `f`; returns it scaled.
    pub fn setup(&mut self, setup_s: f64, f: f64) -> f64 {
        let _ = writeln!(self.record, "setup_s {setup_s} {f}");
        setup_s * f
    }

    /// Adds one window's latency percentiles, scaled by `f`.
    pub fn latency(&mut self, p50: f64, p90: f64, f: f64) {
        let _ = writeln!(self.record, "latency_us {p50} {p90} {f}");
        self.raw.p50.push(p50);
        self.raw.p90.push(p90);
        self.scaled.p50.push(p50 * f);
        self.scaled.p90.push(p90 * f);
    }

    /// Writes the record: one line per set-up or window (its name, raw
    /// values and factor), then every kernel time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let kernels: Vec<String> = self.kernel_us.iter().map(|k| k.to_string()).collect();
        let text = format!(
            "# name raw-value(s) factor; reported = raw x factor\n{}kernel_us {}\n",
            self.record,
            kernels.join(" ")
        );
        std::fs::write(path, text)
    }
}
