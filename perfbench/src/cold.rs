//! `compile-cold`: single thread, in process, no cache. Each pass
//! compiles every corpus program through `Compiler::compile_source`,
//! encodes it, simulates it and checks the result against the
//! program's reference value.
//!
//! The traced run replays the pipeline pass by pass through the same
//! public functions, in `Compiler::compile_mir`'s order, with a span
//! around each call, and checks that the replica's control store is
//! byte-identical to `compile_source`'s.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mcc_core::{Artifact, Compiler, SourceLang};

use crate::calib::{self, Calibration};
use crate::corpus::{Corpus, Rng};
use crate::stats::{median, ok_ratio, p50_p90, proc_status_kb, Report};
use crate::trace::Tracer;
use crate::{Args, RunResult};

/// Set-up is measured this many times per run; the median is reported.
const SETUP_REPS: usize = 31;

/// Latency percentiles are taken per window of this many passes (about
/// a thousand programs, a quarter second), then the median over the
/// windows. A calibration measurement (see [`calib`]) follows set-up and
/// each window.
const PASSES_PER_WINDOW: usize = 32;

/// The passes `CompileStats::pass_nanos` may name that [`replica`]
/// times under a layer of its own (frontend → `lang.parse`; validate,
/// thread_jumps, trap_safety, mark_dead_flags → `core.passes`).
const TRACED_PASSES: [&str; 9] = [
    "frontend",
    "validate",
    "legalize",
    "thread_jumps",
    "regalloc",
    "trap_safety",
    "mark_dead_flags",
    "select",
    "compact",
];

/// Totals one pass over the corpus must reproduce exactly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Totals {
    words: u64,
    cycles: u64,
}

/// The `--probe-cold` child: builds the corpus, compiles, simulates and
/// checks its first program and says `ready` (the parent times process
/// start to that line), then does the same for the rest of the corpus
/// and reports its peak resident set in kB.
pub fn probe() -> Result<(), String> {
    let corpus = Corpus::build();
    for (i, p) in corpus.programs.iter().enumerate() {
        let art = Compiler::new(p.machine.clone())
            .compile_source(p.lang, &p.src)
            .map_err(|e| format!("{}: {e}", p.name))?;
        corpus.encode_and_check(i, &art)?;
        if i == 0 {
            println!("ready");
        }
    }
    println!("{}", proc_status_kb("self", "VmHWM:").ok_or("no VmHWM")?);
    Ok(())
}

/// Spawns `--probe-cold` children: the median seconds from spawn to the
/// first correct answer, and the median peak resident set (MB) of one
/// pass over the corpus in a fresh process.
fn probe_children() -> Result<(f64, f64), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::new();
    let mut rss = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let mut child = Command::new(&exe)
            .arg("--probe-cold")
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn probe: {e}"))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut ready = String::new();
        let read = out.read_line(&mut ready);
        let dt = t0.elapsed().as_secs_f64();
        let mut kb = String::new();
        let read = read.and_then(|_| out.read_line(&mut kb));
        let status = child.wait().map_err(|e| format!("probe wait: {e}"))?;
        let kb: Option<f64> = kb.trim().parse().ok();
        match (read, kb) {
            (Ok(_), Some(kb)) if ready.trim() == "ready" && status.success() => {
                times.push(dt);
                rss.push(kb / 1024.0);
            }
            _ => return Err(format!("set-up probe failed: {status}, `{}`", ready.trim())),
        }
    }
    Ok((median(&mut times), median(&mut rss)))
}

/// A seeded permutation of `0..n`.
fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// Untraced passes: per-program µs (compile, encode, simulate and
/// check), per-pass ms, and the corpus totals (checked identical across
/// passes).
struct Passes {
    request_us: Vec<f64>,
    suite_ms: Vec<f64>,
    totals: Option<Totals>,
    attempted: u64,
    failed: u64,
}

impl Passes {
    fn new() -> Passes {
        Passes {
            request_us: Vec::new(),
            suite_ms: Vec::new(),
            totals: None,
            attempted: 0,
            failed: 0,
        }
    }

    /// One untraced pass over the corpus in a seeded order.
    fn pass(&mut self, corpus: &Corpus, compilers: &[Compiler], rng: &mut Rng) {
        let order = permutation(rng, corpus.programs.len());
        let t_pass = Instant::now();
        let mut totals = Totals {
            words: 0,
            cycles: 0,
        };
        for &i in &order {
            let p = &corpus.programs[i];
            let t = Instant::now();
            let checked = compilers[i]
                .compile_source(p.lang, black_box(&p.src))
                .map_err(|e| format!("{}: {e}", p.name))
                .and_then(|a| corpus.encode_and_check(i, &a));
            self.request_us.push(t.elapsed().as_secs_f64() * 1e6);
            self.attempted += 1;
            match checked {
                Ok(o) => {
                    totals.words += o.words as u64;
                    totals.cycles += o.cycles;
                }
                Err(e) => {
                    eprintln!("perfbench: wrong answer: {e}");
                    self.failed += 1;
                }
            }
        }
        self.suite_ms.push(t_pass.elapsed().as_secs_f64() * 1e3);
        match self.totals {
            None => self.totals = Some(totals),
            Some(first) if first != totals => {
                eprintln!("perfbench: nondeterministic pass: {totals:?} after {first:?}");
                self.failed += 1;
            }
            Some(_) => {}
        }
    }
}

/// `compile-cold`, untraced: the end-to-end metrics.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let mut cal = Calibration::start();
    let (raw_setup_s, peak_rss) = probe_children()?;
    let f = cal.mark();
    let setup_s = cal.setup(raw_setup_s, f);
    let corpus = Corpus::build();
    let mut rng = Rng::new(args.seed, 1);
    let compilers = corpus.compilers();
    let n = corpus.programs.len();
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let mut p = Passes::new();
    let mut windows = 0;
    while windows < 4 || Instant::now() < until {
        let from = p.suite_ms.len();
        for _ in 0..PASSES_PER_WINDOW {
            p.pass(&corpus, &compilers, &mut rng);
        }
        let f = cal.mark();
        windows += 1;
        let (p50, p90) = p50_p90(&mut p.request_us[from * n..].to_vec());
        cal.latency(p50, p90, f);
    }
    cal.write(&args.work_dir.join("windows-compile-cold.txt"))
        .map_err(|e| format!("write calibration record: {e}"))?;
    let totals = p.totals.unwrap_or(Totals {
        words: 0,
        cycles: 0,
    });
    let (c50, c90) = cal.scaled.summary();
    let (raw50, raw90) = cal.raw.summary();
    eprintln!(
        "compile-cold: {} programs in {} passes of {n} programs; raw: setup_s {raw_setup_s} latency_us.p50 {raw50} latency_us.p90 {raw90}",
        p.request_us.len(),
        p.suite_ms.len(),
    );
    let mut r = Report::default();
    r.put("setup_s", setup_s, "s");
    r.put("peak_rss_mb", peak_rss, "MB");
    r.put("ok_ratio", ok_ratio(p.attempted, p.failed), "ratio");
    // A request of this workload is one program: compiled, encoded,
    // simulated and checked against its reference value.
    r.put("latency_us.p50", c50, "us");
    r.put("latency_us.p90", c90, "us");
    r.put("code_words", totals.words as f64, "count");
    r.put("sim_cycles", totals.cycles as f64, "count");
    Ok(RunResult {
        report: r,
        attempted: p.attempted,
        failed: p.failed,
    })
}

/// Counts the traced replica accumulates over one pass of the corpus.
#[derive(Default)]
struct Counts {
    mir_ops: u64,
    spills: u64,
    micro_ops: u64,
    micro_instrs: u64,
    degradations: u64,
}

/// The pipeline of `Compiler::compile_mir` (plus the frontend of
/// `compile_source`), one public call per span. `reference` supplies
/// the source-level symbols so the replica can be checked like any
/// artifact.
fn replica(
    tr: &mut Tracer,
    req: u64,
    c: &Compiler,
    lang: SourceLang,
    src: &str,
    reference: &Artifact,
    counts: &mut Counts,
) -> Result<Artifact, String> {
    let m = c.machine();
    let opts = c.options();
    let err = |e: mcc_core::CompileError| e.to_string();
    let root = tr.begin("compile", req, None);
    let limits = &opts.limits.frontend;
    let parsed = tr.span("lang.parse", req, Some(root), || match lang {
        SourceLang::Simpl => mcc_simpl::parse_with_limits(src, m, limits).map(|p| p.func),
        SourceLang::Yalll => mcc_yalll::parse_with_limits(src, m, limits).map(|p| p.func),
        SourceLang::Empl => mcc_empl::compile_with_limits(src, limits).map(|p| p.func),
        SourceLang::Sstar => mcc_sstar::parse_with_limits(src, m, limits).map(|p| p.func),
    });
    let mut f = parsed.map_err(|e| e.render_excerpt(src))?;
    tr.span("core.passes", req, Some(root), || f.validate())
        .map_err(|e| err(e.into()))?;
    tr.span("mir.legalize", req, Some(root), || {
        mcc_mir::legalize(m, &mut f).map_err(mcc_core::CompileError::from)?;
        f.validate().map_err(mcc_core::CompileError::from)
    })
    .map_err(err)?;
    tr.span("core.passes", req, Some(root), || {
        mcc_core::thread_jumps(&mut f)
    });
    if let Some(n) = opts.poll_interval {
        tr.span("core.passes", req, Some(root), || {
            mcc_core::insert_polls(&mut f, n)
        });
    }
    let report = tr
        .span("regalloc.allocate", req, Some(root), || {
            mcc_regalloc::allocate(m, &mut f, &opts.alloc)
        })
        .map_err(|e| err(e.into()))?;
    counts.spills += report.spilled as u64;
    tr.span("mir.legalize", req, Some(root), || {
        mcc_mir::legalize(m, &mut f)
    })
    .map_err(|e| err(e.into()))?;
    if f.has_virtual_regs() {
        let r2 = tr
            .span("regalloc.allocate", req, Some(root), || {
                mcc_regalloc::allocate(m, &mut f, &opts.alloc)
            })
            .map_err(|e| err(e.into()))?;
        counts.spills += r2.spilled as u64;
    }
    let warnings = tr.span("core.passes", req, Some(root), || {
        mcc_core::trap_safety(m, &f)
    });
    counts.mir_ops += f.op_count() as u64;
    tr.span("core.passes", req, Some(root), || {
        mcc_core::mark_dead_flags(&mut f)
    });
    let selected = tr
        .span("mir.select", req, Some(root), || {
            mcc_mir::select_function(m, &f)
        })
        .map_err(|e| err(e.into()))?;
    let (program, emitted) = tr.span("compact.emit", req, Some(root), || {
        mcc_core::emit::emit(m, &selected, opts.algorithm, opts.model, opts.bb_budget)
    });
    tr.end(root);
    counts.micro_ops += program.op_count() as u64;
    counts.micro_instrs += program.instr_count() as u64;
    counts.degradations += emitted.degradations.len() as u64;
    Ok(Artifact {
        machine: m.clone(),
        program,
        locations: report.locations,
        symbols: reference.symbols.clone(),
        memory_symbols: reference.memory_symbols.clone(),
        warnings,
        stats: Default::default(),
    })
}

/// The traced replica over a list of programs, with the reference
/// artifacts and control stores it must reproduce.
pub struct Replica<'a> {
    corpus: &'a Corpus,
    /// `(corpus index, source)` per program.
    programs: Vec<(usize, String)>,
    compilers: Vec<Compiler>,
    reference: Vec<Artifact>,
    words: Vec<Vec<u128>>,
    next_req: u64,
}

impl<'a> Replica<'a> {
    /// Compiles every program through `compile_source` for reference,
    /// and cross-checks that each pass `CompileStats::pass_nanos` names
    /// has a traced layer.
    pub fn new(corpus: &'a Corpus, programs: Vec<(usize, String)>) -> Result<Replica<'a>, String> {
        let mut rep = Replica {
            corpus,
            compilers: Vec::new(),
            reference: Vec::new(),
            words: Vec::new(),
            programs,
            next_req: 0,
        };
        let mut pass_names = BTreeSet::new();
        for (i, src) in &rep.programs {
            let p = &corpus.programs[*i];
            let c = Compiler::new(p.machine.clone());
            let art = c
                .compile_source(p.lang, src)
                .map_err(|e| format!("{}: {e}", p.name))?;
            rep.words
                .push(art.encode().map_err(|e| format!("{}: {e}", p.name))?);
            pass_names.extend(art.stats.pass_nanos.iter().map(|(n, _)| *n));
            rep.reference.push(art);
            rep.compilers.push(c);
        }
        for name in &pass_names {
            if !TRACED_PASSES.contains(name) {
                eprintln!("perfbench: pass `{name}` has no traced layer; its time shows as compile self time");
            }
        }
        Ok(rep)
    }

    /// Number of programs.
    pub fn len(&self) -> usize {
        self.programs.len()
    }

    /// One traced pass in `order`: replica compile, encode (checked
    /// byte-identical to `compile_source`'s), simulate and check.
    /// Returns the pass's counts and its wrong answers.
    fn pass(&mut self, tr: &mut Tracer, order: &[usize]) -> (Counts, u64) {
        let mut counts = Counts::default();
        let mut failed = 0;
        for &k in order {
            let (i, src) = &self.programs[k];
            let p = &self.corpus.programs[*i];
            self.next_req += 1;
            let req = self.next_req;
            let art = replica(
                tr,
                req,
                &self.compilers[k],
                p.lang,
                src,
                &self.reference[k],
                &mut counts,
            );
            let checked = art.and_then(|a| {
                let enc = tr.span("machine.encode", req, None, || a.encode());
                if enc.as_ref().ok() != Some(&self.words[k]) {
                    return Err(format!(
                        "{}: replica control store differs from compile_source's",
                        p.name
                    ));
                }
                tr.span("sim.run", req, None, || {
                    self.corpus.simulate_and_check(*i, &a)
                })
            });
            if let Err(e) = checked {
                eprintln!("perfbench: wrong answer: {e}");
                failed += 1;
            }
        }
        (counts, failed)
    }

    /// Traced passes in program order until `until` (at least one);
    /// reports the first pass's counts. Returns the attempts and wrong
    /// answers.
    pub fn run_until(&mut self, tr: &mut Tracer, until: Instant, r: &mut Report) -> (u64, u64) {
        let order: Vec<usize> = (0..self.len()).collect();
        let (counts, mut failed) = self.pass(tr, &order);
        let mut attempted = order.len() as u64;
        while Instant::now() < until {
            failed += self.pass(tr, &order).1;
            attempted += order.len() as u64;
        }
        counts.report(r);
        (attempted, failed)
    }
}

impl Counts {
    fn report(&self, r: &mut Report) {
        r.put("mir.ops", self.mir_ops as f64, "count");
        r.put("regalloc.spills", self.spills as f64, "count");
        r.put(
            "compact.ops_per_instr",
            self.micro_ops as f64 / self.micro_instrs.max(1) as f64,
            "ratio",
        );
        r.put("compact.degradations", self.degradations as f64, "count");
    }
}

/// `compile-cold`, traced: untraced and traced replica passes alternate
/// for most of the run (per-layer self times, counts and the tracing
/// overhead), then the serve-path layers are replayed on the corpus.
pub fn run_traced(args: &Args) -> Result<RunResult, String> {
    let corpus = Corpus::build();
    let compilers = corpus.compilers();
    let mut rng = Rng::new(args.seed, 1);
    let programs = corpus
        .programs
        .iter()
        .enumerate()
        .map(|(i, p)| (i, p.src.clone()))
        .collect();
    let mut rep = Replica::new(&corpus, programs)?;

    // Alternating, so drift over the run cannot pose as tracing overhead.
    let mut base = Passes::new();
    let mut tr = Tracer::new();
    let mut suite_ms = Vec::new();
    let mut first = None;
    let mut failed = 0;
    let until = Instant::now() + Duration::from_secs_f64(args.seconds as f64 * 0.6);
    while suite_ms.len() < 3 || Instant::now() < until {
        base.pass(&corpus, &compilers, &mut rng);
        let order = permutation(&mut rng, rep.len());
        let t_pass = Instant::now();
        let (counts, f) = rep.pass(&mut tr, &order);
        suite_ms.push(t_pass.elapsed().as_secs_f64() * 1e3);
        failed += f;
        first.get_or_insert(counts);
    }
    let mut r = Report::default();
    first.expect("at least one traced pass").report(&mut r);
    let mut compile_self = tr
        .self_us_per_request()
        .remove("compile")
        .unwrap_or_default();
    eprintln!(
        "compile-cold traced: compile span self time median {:.3} us",
        median(&mut compile_self)
    );
    let untraced = median(&mut base.suite_ms);
    let traced = median(&mut suite_ms);
    eprintln!("compile-cold traced: suite_ms untraced {untraced:.3}, traced {traced:.3}");
    r.put(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
    );

    // The serve-path layers on the corpus as requests; no server child
    // runs in this workload, so its counters read 0.
    let bodies: Vec<String> = corpus
        .programs
        .iter()
        .map(|p| {
            crate::serve::body_of(
                p.machine_name,
                p.lang.name(),
                &p.src,
                "t-int",
                mcc_serve::Class::Interactive,
            )
        })
        .collect();
    let budget = Duration::from_secs_f64(args.seconds as f64 * 0.4);
    let extras = crate::layers::measure(&corpus, &bodies, budget, &args.work_dir, &mut tr)?;
    extras.report(&mut r);
    crate::layers::report_spans(&tr, &mut r);
    for name in crate::serve::CHILD_METRICS {
        r.put(name, 0.0, crate::serve::unit_of(name));
    }
    r.put("bench.calibration_us", calib::measure(), "us");
    tr.write(&args.work_dir.join("trace-compile-cold.jsonl"))
        .map_err(|e| format!("write trace: {e}"))?;
    Ok(RunResult {
        report: r,
        attempted: base.attempted + (suite_ms.len() * rep.len()) as u64,
        failed: base.failed + failed,
    })
}
