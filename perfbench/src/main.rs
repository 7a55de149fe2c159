//! The mcc benchmark: two workloads against the release build, each
//! checked for correct output, each printing its metrics by name and
//! unit. See `perfbench/README.md` for the workloads, the metrics and
//! which end-to-end metric each per-layer metric should move.
//!
//! ```text
//! perfbench --workload <compile-cold|serve-hit> --seed <n>
//!           --seconds <n> --trace <0|1> --mcc <path> --work-dir <dir>
//! ```
//!
//! `run.py` builds this binary and `mcc`, then invokes it with those
//! arguments. The last line of stdout is the result object.

mod calib;
mod cold;
mod corpus;
mod layers;
mod net;
mod serve;
mod stats;
mod sys;
mod trace;

use std::path::PathBuf;

use stats::Report;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// The `mcc` binary serving the serve workloads.
    pub mcc: PathBuf,
    /// Scratch directory for cache directories and span logs.
    pub work_dir: PathBuf,
}

/// What a workload run reports.
pub struct RunResult {
    /// Metrics by name and unit.
    pub report: Report,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        mcc: PathBuf::new(),
        work_dir: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = value()? == "1",
            "--mcc" => a.mcc = PathBuf::from(value()?),
            "--work-dir" => a.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    if a.work_dir.as_os_str().is_empty() {
        return Err("--work-dir is required".into());
    }
    Ok(a)
}

fn run() -> Result<RunResult, String> {
    if std::env::args().nth(1).as_deref() == Some("--probe-cold") {
        cold::probe()?;
        std::process::exit(0);
    }
    let mut args = parse_args()?;
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("create {}: {e}", args.work_dir.display()))?;
    // The server child runs in its cache directory: make paths absolute.
    args.work_dir = std::fs::canonicalize(&args.work_dir).map_err(|e| format!("work dir: {e}"))?;
    if args.workload.starts_with("serve-") {
        args.mcc = std::fs::canonicalize(&args.mcc)
            .map_err(|e| format!("mcc binary `{}`: {e}", args.mcc.display()))?;
    }
    match (args.workload.as_str(), args.trace) {
        ("compile-cold", false) => cold::run(&args),
        ("compile-cold", true) => cold::run_traced(&args),
        ("serve-hit", trace) => serve::run(&args, trace),
        (other, _) => Err(format!("unknown workload `{other}`")),
    }
}

fn main() {
    match run() {
        Ok(r) => {
            let correct = r.failed == 0 && r.attempted > 0;
            r.report.emit(correct, r.attempted, r.failed);
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
