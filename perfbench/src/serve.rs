//! `serve-hit`: a real `mcc serve --jobs 2` child with a fresh
//! `MCC_CACHE_DIR` for each run, driven by the one-thread generator of
//! [`crate::net`]. The child starts on a disk cache an untimed prepare
//! step filled with the workload's key set; a warm-up touches every key
//! before timing. One v1 and one v2 connection share the rate. Keys are
//! spread over three tenants across the interactive, batch and
//! background classes. In the traced run one fixed-rate request in
//! [`MISS_EVERY`], drawn at random, carries a unique comment nonce
//! instead (a real compile through the WFQ queue and the pool, plus a
//! disk-tier store), so the queue, the pool and the write path carry
//! some load there too.
//!
//! Each run: set-up (child start to the end of the warm-up, repeated
//! and the median reported), then fixed-rate open-loop windows (latency
//! from each request's due instant).

use std::collections::HashMap;
use std::fs::File;
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::rc::Rc;
use std::time::{Duration, Instant};

use mcc_core::{Compiler, CompilerOptions};
use mcc_harness::json::{get_num, get_str, parse_object, Val};
use mcc_serve::proto2::Caps;
use mcc_serve::Class;

use crate::calib::{self, Calibration};
use crate::corpus::{with_nonce, Corpus, Rng};
use crate::net::{open_loop, Conn, Driver, OpenLoop, Planned, Reply, PROBE_TAG};
use crate::stats::{
    median, ok_ratio, peak_rss_mb, proc_cpu_us, proc_status_kb, quantile, sort, window_p50_p90s,
    windowed_p50, Report,
};
use crate::trace::Tracer;
use crate::{layers, Args, RunResult};

/// The fixed open-loop rate, requests per second (both connections).
const RATE: f64 = 8000.0;

/// In the traced run, one fixed-rate request in this many on average is
/// a miss (40 per second), drawn at random so that the periodic `stats`
/// probes do not sample them in step, and sent on the v2 connection:
/// v1 answers in order, so a miss there would hold up every hit behind
/// it for a compile and a fsynced disk store. The untraced run sends no
/// misses: the fsync tail of a shared disk would move its latency from
/// run to run.
const MISS_EVERY: usize = 200;

/// Latency percentiles are taken per window of this many seconds (4000
/// requests at [`RATE`]), then the median over the windows. The
/// untraced run is a sequence of such windows, each its own open loop,
/// with a calibration measurement (see [`calib`]) after set-up and after
/// each window, while the server is idle.
const WINDOW_S: f64 = 0.5;

/// The server's admission bound (`mcc serve`'s default, passed
/// explicitly): the traced run's misses stay far below it, so the
/// server stays at its base tier and sheds nothing.
const QUEUE_BOUND: usize = 64;

/// Set-up is measured this many times per untraced run.
const SETUP_REPS: usize = 15;

/// Fixed variants (comment nonces) of each corpus program in the key
/// set; variant `v` belongs to tenant `TENANTS[v % 3]`.
const HIT_VARIANTS: usize = 8;

/// Interval of the in-band `stats` probes in the traced run.
const PROBE_EVERY: Duration = Duration::from_millis(50);

/// How long set-up and scrapes wait for one answer.
const CALL_LIMIT: Duration = Duration::from_secs(30);

/// The tenants and their classes.
const TENANTS: [(&str, Class); 3] = [
    ("t-int", Class::Interactive),
    ("t-batch", Class::Batch),
    ("t-bg", Class::Background),
];

/// A request tag packs a sequence number, the class and the program,
/// so a reply can be checked without a lookup table.
fn tag(seq: u64, class: Class, prog: usize) -> u64 {
    (seq << 10) | ((class.idx() as u64) << 8) | prog as u64
}

fn tag_prog(tag: u64) -> usize {
    (tag & 0xFF) as usize
}

fn tag_class(tag: u64) -> Class {
    Class::ALL[((tag >> 8) & 0x3) as usize]
}

/// The tier a class is served at on an idle server: background enters
/// the degradation ladder one tier early by design.
fn base_tier(class: Class) -> u64 {
    u64::from(class == Class::Background)
}

/// A running `mcc serve` child. Dropping it kills and reaps it, so no
/// exit path leaves it behind.
struct Server {
    child: Child,
    addr: SocketAddr,
    pid: String,
}

impl Server {
    /// Starts `mcc serve` on an ephemeral port with `cache_dir` as its
    /// disk tier and waits for its listening line.
    fn spawn(mcc: &Path, cache_dir: &Path, log: &Path) -> Result<Server, String> {
        let log_file = File::create(log).map_err(|e| format!("create {}: {e}", log.display()))?;
        let child = Command::new(mcc)
            .args(["serve", "--port", "0", "--jobs", "2"])
            .args(["--queue-bound", &QUEUE_BOUND.to_string()])
            .env("MCC_CACHE_DIR", cache_dir)
            .env_remove("MCC_NO_CACHE")
            .current_dir(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log_file)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", mcc.display()))?;
        let pid = child.id().to_string();
        let mut s = Server {
            child,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            pid,
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            // The line may still be half written: wait for its end.
            let line = text
                .split("listening on ")
                .nth(1)
                .and_then(|rest| rest.split_once('\n'));
            if let Some((line, _)) = line {
                let addr = line.split_whitespace().next().unwrap_or("");
                s.addr = addr
                    .parse()
                    .map_err(|e| format!("listening address `{addr}`: {e}"))?;
                return Ok(s);
            }
            if let Ok(Some(status)) = s.child.try_wait() {
                return Err(format!(
                    "mcc serve exited during start-up ({status}): {text}"
                ));
            }
            if Instant::now() > deadline {
                return Err("mcc serve did not start listening within 30 s".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Asks the child to drain and waits for it to exit; kills it if it
    /// does not within a few seconds.
    fn stop(mut self) -> Result<(), String> {
        let drained = Conn::v1(self.addr).and_then(|c| {
            let mut d = Driver::new(vec![c]);
            d.call(
                0,
                1,
                "{\"op\":\"drain\"}",
                Duration::from_secs(5),
                &mut Vec::new(),
            )
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match drained {
                    Ok(_) if status.success() => Ok(()),
                    Ok(_) => Err(format!("mcc serve exited with {status} after a drain")),
                    Err(e) => Err(format!("drain request failed: {e}")),
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("mcc serve did not exit after a drain".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// What one `200` must carry for a program at a tier.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Answer {
    instrs: u64,
    ops: u64,
    checksum: u64,
}

/// The expected answer plus what the artifact behind it encodes to
/// and simulates in (checked against the program's reference value).
#[derive(Clone, Copy)]
struct Expect {
    answer: Answer,
    words: u64,
    cycles: u64,
}

/// Generates the workload's requests and checks every reply against an
/// in-process `compile_source` of the same program.
struct Work {
    corpus: Corpus,
    rng: Rng,
    seq: u64,
    /// The fixed key set as (program, class, request body).
    keys: Vec<(usize, Class, Rc<str>)>,
    /// Expected results by (program, tier), computed on first use.
    expected: HashMap<(usize, u64), Expect>,
    /// Control-store words and simulated cycles of each program served
    /// correctly at least once.
    served: std::collections::BTreeMap<usize, (u64, u64)>,
    attempted: u64,
    failed: u64,
    /// `200`s served above their class's base tier.
    degraded: u64,
    /// Program and body of requests sent in the current phase (for the
    /// in-process layer replays).
    samples: Vec<(usize, Rc<str>)>,
}

impl Work {
    fn new(seed: u64) -> Result<Work, String> {
        let corpus = Corpus::build();
        let mut w = Work {
            corpus,
            rng: Rng::new(seed, 2),
            seq: 0,
            keys: Vec::new(),
            expected: HashMap::new(),
            served: Default::default(),
            attempted: 0,
            failed: 0,
            degraded: 0,
            samples: Vec::new(),
        };
        // A nonce must never change the artifact: check once per program.
        for (i, p) in w.corpus.programs.iter().enumerate() {
            let base = expect_of(&w.corpus, i, 0, &p.src)?;
            let nonced = expect_of(&w.corpus, i, 0, &with_nonce(p.lang, &p.src, 0xfeed))?;
            if base.answer != nonced.answer {
                return Err(format!("{}: a comment nonce changed the artifact", p.name));
            }
            w.expected.insert((i, 0), base);
        }
        let mut key_rng = Rng::new(seed, 3);
        for (i, p) in w.corpus.programs.iter().enumerate() {
            for v in 0..HIT_VARIANTS {
                let (tenant, class) = TENANTS[v % TENANTS.len()];
                let src = with_nonce(p.lang, &p.src, key_rng.next_u64());
                let body = body_of(p.machine_name, p.lang.name(), &src, tenant, class);
                w.keys.push((i, class, body.into()));
            }
        }
        Ok(w)
    }

    /// Checks one reply; counts and reports a wrong one.
    fn verify_reply(&mut self, r: &Reply) -> bool {
        match self.check(r) {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.failed <= 5 {
                    eprintln!("perfbench: wrong answer: {e}");
                }
                false
            }
        }
    }

    /// The next request, a hit or (with `miss`) a source no request
    /// carried before: `(tag, body)`.
    fn next_request(&mut self, miss: bool) -> (u64, Rc<str>) {
        self.seq += 1;
        self.attempted += 1;
        let (prog, class, body) = if miss {
            let prog = self.rng.below(self.corpus.programs.len());
            let (tenant, class) = TENANTS[self.rng.below(TENANTS.len())];
            let p = &self.corpus.programs[prog];
            let src = with_nonce(p.lang, &p.src, self.seq);
            let body: Rc<str> = body_of(p.machine_name, p.lang.name(), &src, tenant, class).into();
            (prog, class, body)
        } else {
            let (prog, class, body) = &self.keys[self.rng.below(self.keys.len())];
            (*prog, *class, Rc::clone(body))
        };
        if self.samples.len() < 4096 {
            self.samples.push((prog, Rc::clone(&body)));
        }
        (tag(self.seq, class, prog), body)
    }

    fn check(&mut self, r: &Reply) -> Result<(), String> {
        let m = parse_object(&r.body).ok_or_else(|| format!("unparseable reply `{}`", r.body))?;
        let num = |k: &str| get_num(&m, k).ok_or_else(|| format!("reply lacks `{k}`: {}", r.body));
        if num("code")? != 200 {
            return Err(format!("non-200 reply: {}", r.body));
        }
        let tier = num("tier")?;
        let prog = tag_prog(r.tag);
        if tier > base_tier(tag_class(r.tag)) {
            self.degraded += 1;
        }
        let want = self.expect(prog, tier)?;
        let checksum = get_str(&m, "checksum").and_then(|s| u64::from_str_radix(&s, 16).ok());
        let got = Answer {
            instrs: num("instrs")?,
            ops: num("ops")?,
            checksum: checksum.ok_or("reply lacks a checksum")?,
        };
        if got != want.answer {
            return Err(format!(
                "{} at tier {tier}: served {got:?}, compile_source gives {:?}",
                self.corpus.programs[prog].name, want.answer
            ));
        }
        self.served.entry(prog).or_insert((want.words, want.cycles));
        Ok(())
    }

    fn expect(&mut self, prog: usize, tier: u64) -> Result<Expect, String> {
        if let Some(e) = self.expected.get(&(prog, tier)) {
            return Ok(*e);
        }
        let e = expect_of(&self.corpus, prog, tier, &self.corpus.programs[prog].src)?;
        self.expected.insert((prog, tier), e);
        Ok(e)
    }

    /// The open-loop schedule for `length` at [`RATE`], alternating
    /// between the connections; with `misses`, one request in
    /// [`MISS_EVERY`] is a miss on the v2 connection, and with `probes`, `stats`
    /// probes ride along on the v2 connection.
    fn plan(&mut self, length: Duration, conns: usize, misses: bool, probes: bool) -> Vec<Planned> {
        let n = (RATE * length.as_secs_f64()) as u64;
        let mut plan = Vec::with_capacity(n as usize);
        for i in 0..n {
            let miss = misses && self.rng.below(MISS_EVERY) == 0;
            let conn = if miss {
                conns - 1
            } else {
                (i % conns as u64) as usize
            };
            let (tag, body) = self.next_request(miss);
            plan.push(Planned {
                due: Duration::from_secs_f64(i as f64 / RATE),
                conn,
                tag,
                body,
            });
        }
        if probes {
            let v2 = conns - 1;
            let mut at = PROBE_EVERY;
            let mut k = 0;
            while at < length {
                k += 1;
                let i = plan.partition_point(|p| p.due < at);
                plan.insert(
                    i,
                    Planned {
                        due: at,
                        conn: v2,
                        tag: PROBE_TAG | k,
                        body: "{\"op\":\"stats\"}".into(),
                    },
                );
                at += PROBE_EVERY;
            }
        }
        plan
    }
}

/// The JSON body of a compile request.
pub fn body_of(machine: &str, lang: &str, src: &str, tenant: &str, class: Class) -> String {
    mcc_serve::proto::compile_line_qos("", machine, lang, src, Some(tenant), Some(class.name()))
        .trim_end()
        .to_string()
}

/// The answer an in-process `compile_source` of program `prog` (with
/// source `src`, under the options of `tier`) gives, as a `200` reports
/// it; the artifact is also encoded, simulated and checked.
fn expect_of(corpus: &Corpus, prog: usize, tier: u64, src: &str) -> Result<Expect, String> {
    let p = &corpus.programs[prog];
    let opts = mcc_serve::options_for_tier(CompilerOptions::default(), tier as u8);
    let art = Compiler::with_options(p.machine.clone(), opts)
        .compile_source(p.lang, src)
        .map_err(|e| format!("{}: {e}", p.name))?;
    let out = corpus.encode_and_check(prog, &art)?;
    Ok(Expect {
        answer: Answer {
            instrs: art.stats.micro_instrs as u64,
            ops: art.stats.micro_ops as u64,
            checksum: mcc_cache::disk::fnv1a(mcc_cache::serialize_artifact(&art).as_bytes()),
        },
        words: out.words as u64,
        cycles: out.cycles,
    })
}

/// Fills `dir`'s disk tier with the key set, in process, exactly as the
/// server keys them: default options at the base tier of each key's
/// class.
fn prefill(w: &Work, dir: &Path) -> Result<(), String> {
    let cache = mcc_cache::Cache::new();
    cache
        .attach_disk(dir)
        .map_err(|e| format!("attach {}: {e}", dir.display()))?;
    for (prog, class, body) in &w.keys {
        let p = &w.corpus.programs[*prog];
        let src = body_src(body)?;
        let opts = mcc_serve::options_for_tier(CompilerOptions::default(), base_tier(*class) as u8);
        let c = Compiler::with_options(p.machine.clone(), opts);
        let key = mcc_cache::key_of(c.machine(), p.lang, c.options(), &src);
        cache
            .compile_keyed(key, &c, p.lang, &src, mcc_cache::Persist::Disk)
            .map_err(|e| format!("{}: {e}", p.name))?;
    }
    Ok(())
}

/// The `src` field of a request body.
pub fn body_src(body: &str) -> Result<String, String> {
    parse_object(body)
        .and_then(|m| get_str(&m, "src"))
        .ok_or_else(|| format!("request without a source: {body}"))
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("create {}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("read {}: {e}", from.display()))?;
    for e in entries {
        let e = e.map_err(|e| e.to_string())?;
        if e.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(e.path(), to.join(e.file_name())).map_err(|e| format!("copy: {e}"))?;
        }
    }
    Ok(())
}

/// A started child with its connections, ready for the timed phases.
struct Ready {
    server: Server,
    driver: Driver,
    /// Seconds from spawn to the end of the warm-up that touches every
    /// key, all answered correctly.
    setup_s: f64,
}

/// Starts a child on a fresh copy of the pre-filled cache directory
/// and warms every key.
fn start(
    args: &Args,
    w: &mut Work,
    run_dir: &Path,
    template: &Path,
    n: usize,
) -> Result<Ready, String> {
    let dir = run_dir.join(format!("cache-{n}"));
    copy_dir(template, &dir)?;
    let t0 = Instant::now();
    let server = Server::spawn(&args.mcc, &dir, &run_dir.join(format!("serve-{n}.log")))?;
    let want = Caps {
        compress: true,
        window: 64,
    };
    let conns = vec![Conn::v1(server.addr)?, Conn::v2(server.addr, want)?];
    let mut driver = Driver::new(conns);
    // Warm-up: every key once, pipelined over both connections.
    let plan: Vec<Planned> = w
        .keys
        .iter()
        .enumerate()
        .map(|(k, (prog, class, body))| Planned {
            due: Duration::ZERO,
            conn: k % 2,
            tag: tag(k as u64 + 1, *class, *prog),
            body: Rc::clone(body),
        })
        .collect();
    w.attempted += plan.len() as u64;
    let out = open_loop(&mut driver, &plan, |r| {
        w.verify_reply(r);
    })?;
    if out.unanswered > 0 || w.failed > 0 {
        return Err("warm-up answers missing or wrong".into());
    }
    Ok(Ready {
        server,
        driver,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

/// One `stats` or `metrics` answer, parsed.
fn scrape(d: &mut Driver, op: &str, n: u64) -> Result<HashMap<String, Val>, String> {
    let v2 = d.conns.len() - 1;
    let mut others = Vec::new();
    let r = d.call(
        v2,
        PROBE_TAG | (1 << 40) | n,
        &format!("{{\"op\":\"{op}\"}}"),
        CALL_LIMIT,
        &mut others,
    )?;
    if !others.is_empty() {
        return Err("replies arrived after their phase ended".into());
    }
    parse_object(&r.body).ok_or_else(|| format!("unparseable {op} reply"))
}

/// Runs `serve-hit`, untraced or traced.
pub fn run(args: &Args, traced: bool) -> Result<RunResult, String> {
    let run_dir = args
        .work_dir
        .join(format!("serve-hit-{}-{}", args.seed, std::process::id()));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;
    // Misses fsync their stores: start from a clean disk queue.
    crate::sys::sync_filesystems();
    let out = run_in(args, traced, &run_dir);
    // Never keep the cache directories, and flush their removal before
    // the next run.
    let _ = std::fs::remove_dir_all(&run_dir);
    crate::sys::sync_filesystems();
    out
}

fn run_in(args: &Args, traced: bool, run_dir: &Path) -> Result<RunResult, String> {
    let mut w = Work::new(args.seed)?;
    let template = run_dir.join("prefilled");
    prefill(&w, &template)?;
    let reps = if traced { 1 } else { SETUP_REPS };
    let mut cal = Calibration::start();
    let mut setups = Vec::new();
    let mut ready = None;
    for n in 0..reps {
        if let Some(prev) = ready.take() {
            let Ready { server, .. } = prev;
            server.stop()?;
        }
        let r = start(args, &mut w, run_dir, &template, n)?;
        setups.push(r.setup_s);
        ready = Some(r);
    }
    let Ready {
        server, mut driver, ..
    } = ready.expect("at least one set-up");
    let raw_setup_s = median(&mut setups);
    let f = cal.mark();
    let setup_s = cal.setup(raw_setup_s, f);
    let conns = driver.conns.len();
    let secs = args.seconds as f64;

    let mut r = Report::default();
    if traced {
        traced_phases(args, &mut w, &mut driver, &server, &mut r)?;
    } else {
        let windows = ((secs / WINDOW_S).round() as usize).max(4);
        let (mut sent, mut unanswered) = (0, 0);
        for _ in 0..windows {
            let window = Duration::from_secs_f64(WINDOW_S);
            let (fixed, _) = open_loop_phase(&mut driver, &mut w, window, conns, false, false)?;
            let f = cal.mark();
            for (p50, p90) in
                window_p50_p90s(&fixed.latency_us, &fixed.due_s, &fixed.conn, WINDOW_S)
            {
                cal.latency(p50, p90, f);
            }
            sent += fixed.sent;
            unanswered += fixed.unanswered;
        }
        cal.write(&args.work_dir.join("windows-serve-hit.txt"))
            .map_err(|e| format!("write calibration record: {e}"))?;
        let (p50, p90) = cal.scaled.summary();
        let (raw50, raw90) = cal.raw.summary();
        let stats = scrape(&mut driver, "stats", 1)?;
        eprintln!(
            "serve-hit: {sent} requests at {RATE} rps, {unanswered} unanswered; stats: shed {:?}, cache hits {:?}, misses {:?}; raw: setup_s {raw_setup_s} latency_us.p50 {raw50} latency_us.p90 {raw90}",
            get_num(&stats, "shed"),
            get_num(&stats, "cache_hits"),
            get_num(&stats, "cache_misses"),
        );
        r.put("setup_s", setup_s, "s");
        r.put("peak_rss_mb", peak_rss_mb(&server.pid), "MB");
        r.put("ok_ratio", ok_ratio(w.attempted, w.failed), "ratio");
        r.put("latency_us.p50", p50, "us");
        r.put("latency_us.p90", p90, "us");
        let (words, cycles) = w
            .served
            .values()
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1));
        eprintln!(
            "serve-hit: {} of {} programs served",
            w.served.len(),
            w.corpus.programs.len()
        );
        r.put("code_words", words as f64, "count");
        r.put("sim_cycles", cycles as f64, "count");
    }
    drop(driver);
    server.stop()?;
    Ok(RunResult {
        report: r,
        attempted: w.attempted,
        failed: w.failed,
    })
}

/// The fixed-rate open loop (see [`Work::plan`]); unanswered requests
/// count as failures. Also returns the queue depths the `stats` probes
/// sampled.
fn open_loop_phase(
    d: &mut Driver,
    w: &mut Work,
    length: Duration,
    conns: usize,
    misses: bool,
    probes: bool,
) -> Result<(OpenLoop, Vec<f64>), String> {
    let plan = w.plan(length, conns, misses, probes);
    let mut depths = Vec::new();
    let out = open_loop(d, &plan, |r| {
        if r.tag & PROBE_TAG != 0 {
            if let Some(q) = parse_object(&r.body).and_then(|m| get_num(&m, "queue_depth")) {
                depths.push(q as f64);
            }
        } else {
            w.verify_reply(r);
        }
    })?;
    w.failed += out.unanswered;
    Ok((out, depths))
}

/// Per-class p99 (µs, bucket upper bound) of the server's latency
/// histograms, from the difference of two `metrics` expositions.
fn wait_p99_by_class(before: &str, after: &str) -> HashMap<String, f64> {
    fn buckets(text: &str) -> HashMap<(String, u64), f64> {
        let mut out = HashMap::new();
        for line in text
            .lines()
            .filter(|l| l.starts_with("mcc_serve_latency_us_bucket{"))
        {
            let class = line
                .split("class=\"")
                .nth(1)
                .and_then(|s| s.split('"').next());
            let le = line.split("le=\"").nth(1).and_then(|s| s.split('"').next());
            let n = line.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok());
            if let (Some(class), Some(le), Some(n)) = (class, le, n) {
                let le = le.parse::<u64>().unwrap_or(u64::MAX);
                *out.entry((class.to_string(), le)).or_insert(0.0) += n;
            }
        }
        out
    }
    let (b, a) = (buckets(before), buckets(after));
    let mut by_class: HashMap<String, Vec<(u64, f64)>> = HashMap::new();
    for ((class, le), n) in &a {
        let d = n - b.get(&(class.clone(), *le)).copied().unwrap_or(0.0);
        by_class.entry(class.clone()).or_default().push((*le, d));
    }
    by_class
        .into_iter()
        .map(|(class, mut v)| {
            v.sort_by_key(|(le, _)| *le);
            let total = v.last().map_or(0.0, |(_, n)| *n);
            let p99 = v
                .iter()
                .find(|(_, n)| *n >= 0.99 * total && total > 0.0)
                .map_or(0.0, |(le, _)| *le as f64);
            (class, p99)
        })
        .collect()
}

/// Per-layer metrics only a server child and the generator driving it
/// produce; `compile-cold` reports them as 0.
pub const CHILD_METRICS: [&str; 12] = [
    "net.hop_us",
    "serve.threads",
    "serve.cpu_us_per_req",
    "serve.queue_depth",
    "serve.wait_p99_us.interactive",
    "serve.wait_p99_us.batch",
    "serve.wait_p99_us.background",
    "serve.shed",
    "serve.degraded",
    "cache.hit_ratio",
    "loadgen.lag_us",
    "loadgen.cpu_us_per_req",
];

/// The unit of a [`CHILD_METRICS`] entry.
pub fn unit_of(name: &str) -> &'static str {
    match name {
        "cache.hit_ratio" => "ratio",
        "serve.threads" | "serve.queue_depth" | "serve.shed" | "serve.degraded" => "count",
        _ => "us",
    }
}

/// The traced run: untraced and traced fixed-rate halves (the
/// difference is the tracing overhead), server counters scraped around
/// the traced half, then the in-process replays of every layer on the
/// workload's own requests.
fn traced_phases(
    args: &Args,
    w: &mut Work,
    d: &mut Driver,
    server: &Server,
    r: &mut Report,
) -> Result<(), String> {
    let secs = args.seconds as f64;
    let conns = d.conns.len();
    let phase = Duration::from_secs_f64(secs * 0.3);
    let (base, _) = open_loop_phase(d, w, phase, conns, true, false)?;
    let base50 = windowed_p50(&base.latency_us, &base.due_s, &base.conn, WINDOW_S);

    let metrics_before = scrape(d, "metrics", 2)?;
    let stats_before = scrape(d, "stats", 3)?;
    let cpu0 = proc_cpu_us(&server.pid).unwrap_or(f64::NAN);
    let self0 = proc_cpu_us("self").unwrap_or(f64::NAN);
    let degraded0 = w.degraded;
    w.samples.clear();
    d.tracer = Some(Tracer::new());
    let (traced, depths) = open_loop_phase(d, w, phase, conns, true, true)?;
    let mut tr = d.tracer.take().expect("tracer set above");
    let cpu1 = proc_cpu_us(&server.pid).unwrap_or(f64::NAN);
    let self1 = proc_cpu_us("self").unwrap_or(f64::NAN);
    let threads = proc_status_kb(&server.pid, "Threads:").unwrap_or(0) as f64;
    let stats = scrape(d, "stats", 4)?;
    let metrics_after = scrape(d, "metrics", 5)?;
    let traced50 = windowed_p50(&traced.latency_us, &traced.due_s, &traced.conn, WINDOW_S);
    let n = traced.sent.max(1) as f64;

    // In-process replays on the requests of the traced phase.
    let bodies: Vec<String> = w.samples.iter().map(|(_, b)| b.to_string()).collect();
    let mut programs: Vec<(usize, String)> = Vec::new();
    for (prog, body) in &w.samples {
        let src = body_src(body)?;
        if programs.len() < 64 && !programs.iter().any(|(_, s)| *s == src) {
            programs.push((*prog, src));
        }
    }
    let mut rep = crate::cold::Replica::new(&w.corpus, programs)?;
    let until = Instant::now() + Duration::from_secs_f64(secs * 0.15);
    let (attempted, failed) = rep.run_until(&mut tr, until, r);
    w.attempted += attempted;
    w.failed += failed;
    let budget = Duration::from_secs_f64(secs * 0.25);
    let extras = layers::measure(&w.corpus, &bodies, budget, &args.work_dir, &mut tr)?;
    extras.report(r);
    layers::report_spans(&tr, r);

    let num = |m: &HashMap<String, Val>, k: &str| get_num(m, k).unwrap_or(0) as f64;
    let hits = num(&stats, "cache_hits");
    let lookups = hits + num(&stats, "cache_misses");
    let text = |m: &HashMap<String, Val>| get_str(m, "text").unwrap_or_default();
    let waits = wait_p99_by_class(&text(&metrics_before), &text(&metrics_after));
    let mut lag = traced.lag_us.clone();
    sort(&mut lag);
    for name in CHILD_METRICS {
        let v = match name {
            "net.hop_us" => base50 - extras.intake_p50_us,
            "serve.threads" => threads,
            "serve.cpu_us_per_req" => (cpu1 - cpu0) / n,
            "serve.queue_depth" => depths.iter().sum::<f64>() / depths.len().max(1) as f64,
            "serve.shed" => num(&stats, "shed") - num(&stats_before, "shed"),
            "serve.degraded" => (w.degraded - degraded0) as f64,
            "cache.hit_ratio" => {
                if lookups > 0.0 {
                    hits / lookups
                } else {
                    0.0
                }
            }
            "loadgen.lag_us" => quantile(&lag, 0.99),
            "loadgen.cpu_us_per_req" => (self1 - self0) / n,
            wait => {
                let class = wait.trim_start_matches("serve.wait_p99_us.");
                waits.get(class).copied().unwrap_or(0.0)
            }
        };
        r.put(name, v, unit_of(name));
    }
    r.put(
        "trace.overhead_pct",
        (traced50 - base50) / base50 * 100.0,
        "%",
    );
    r.put("bench.calibration_us", calib::measure(), "us");
    tr.write(&args.work_dir.join("trace-serve-hit.jsonl"))
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(())
}
