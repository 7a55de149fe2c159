//! Order statistics and the result line.

/// The `q`-quantile (0 < q ≤ 1) by nearest rank: the smallest sample
/// with at least `q·n` samples at or below it. `NaN` for no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts `v` and returns its median.
pub fn median(v: &mut [f64]) -> f64 {
    sort(v);
    quantile(v, 0.5)
}

/// Sorts in place (total order; the benchmark never produces `NaN`).
pub fn sort(v: &mut [f64]) {
    v.sort_by(|a, b| a.total_cmp(b));
}

/// p50 and p99 of `v` (sorted in place). The p99 is reported only when
/// at least ten samples lie beyond it; otherwise the highest percentile
/// that has is used, and the caller sees it in the sample count.
#[cfg(test)]
pub fn p50_p99(v: &mut [f64]) -> (f64, f64) {
    sort(v);
    let q = if v.len() >= 1000 {
        0.99
    } else {
        1.0 - 10.0 / v.len().max(20) as f64
    };
    (quantile(v, 0.5), quantile(v, q))
}

/// p50 and p90 of `v` (sorted in place); p90 needs at least 100 samples
/// to have ten beyond it.
pub fn p50_p90(v: &mut [f64]) -> (f64, f64) {
    sort(v);
    (quantile(v, 0.5), quantile(v, 0.9))
}

/// Per-window latency percentiles of one run.
#[derive(Default)]
pub struct Windows {
    /// p50 of each window.
    pub p50: Vec<f64>,
    /// p90 of each window.
    pub p90: Vec<f64>,
}

impl Windows {
    /// The medians over the windows of the p50s and of the p90s: a
    /// disturbance confined to a few windows moves neither.
    pub fn summary(&mut self) -> (f64, f64) {
        (median(&mut self.p50), median(&mut self.p90))
    }
}

/// p50 and p90 of the requests of each window of `window_s` seconds (by
/// due instant), each the mean over the connections (`conn` of each
/// sample) of that connection's percentile, so that each dialect weighs
/// the same however their latencies interleave. Windows in which a
/// connection has fewer than 100 samples are left out unless every
/// window is; then all samples make one window.
pub fn window_p50_p90s(
    latency_us: &[f64],
    due_s: &[f64],
    conn: &[usize],
    window_s: f64,
) -> Vec<(f64, f64)> {
    let conns = conn.iter().max().map_or(1, |c| c + 1);
    let mut windows: Vec<Vec<Vec<f64>>> = Vec::new();
    for ((&l, &d), &c) in latency_us.iter().zip(due_s).zip(conn) {
        let w = (d / window_s) as usize;
        if windows.len() <= w {
            windows.resize(w + 1, vec![Vec::new(); conns]);
        }
        windows[w][c].push(l);
    }
    let mut full: Vec<Vec<Vec<f64>>> = windows
        .into_iter()
        .filter(|w| w.iter().all(|c| c.len() >= 100))
        .collect();
    if full.is_empty() {
        let mut all = vec![Vec::new(); conns];
        for (&l, &c) in latency_us.iter().zip(conn) {
            all[c].push(l);
        }
        full = vec![all];
    }
    full.iter_mut()
        .map(|w| {
            let n = w.len() as f64;
            w.iter_mut()
                .map(|c| p50_p90(c))
                .fold((0.0, 0.0), |(a, b), (c, d)| (a + c / n, b + d / n))
        })
        .collect()
}

/// The median over the windows of [`window_p50_p90s`]' p50.
pub fn windowed_p50(latency_us: &[f64], due_s: &[f64], conn: &[usize], window_s: f64) -> f64 {
    let mut p50s: Vec<f64> = window_p50_p90s(latency_us, due_s, conn, window_s)
        .into_iter()
        .map(|(p50, _)| p50)
        .collect();
    median(&mut p50s)
}

/// Named metrics in insertion order, rendered as the benchmark's result.
#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    /// Adds one metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// Prints one `name value unit` line per metric to stderr, then the
    /// result object as the last line of stdout.
    pub fn emit(&self, correct: bool, attempted: u64, failed: u64) {
        for (name, value, unit) in &self.metrics {
            eprintln!("  {name:<34} {value:>16.4} {unit}");
        }
        let body: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            body.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has;
/// non-finite values (which JSON cannot carry) become `-1`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "-1".to_string()
    }
}

/// Share of attempts answered correctly.
pub fn ok_ratio(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        (attempted - failed) as f64 / attempted as f64
    }
}

/// `VmHWM` of a process (a pid) in MB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    proc_status_kb(pid, "VmHWM:").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Reads one `Key:   <n> kB` line of a `/proc/<pid>/status` file.
pub fn proc_status_kb(pid: &str, key: &str) -> Option<u64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find(|l| l.starts_with(key))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// User plus system CPU time of a process, in microseconds, from
/// `/proc/<pid>/stat` (fields 14 and 15, in clock ticks of 10 ms).
pub fn proc_cpu_us(pid: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields restart after its `)`.
    let rest = &text[text.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?;
    Some(ticks * 10_000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn each_connection_weighs_the_same() {
        // Three times as many fast samples on connection 0 as slow ones
        // on connection 1: the window's p50 is the mean of the two.
        let mut lat = vec![10.0; 300];
        lat.extend(vec![100.0; 100]);
        let mut conn = vec![0; 300];
        conn.extend(vec![1; 100]);
        let due = vec![0.1; 400];
        assert_eq!(window_p50_p90s(&lat, &due, &conn, 0.5), vec![(55.0, 55.0)]);
    }

    #[test]
    fn small_samples_keep_ten_beyond_the_tail() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p50, tail) = p50_p99(&mut v);
        assert_eq!(p50, 100.0);
        assert_eq!(tail, 190.0);
    }
}
