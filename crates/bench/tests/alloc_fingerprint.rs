//! Pins every register-allocation decision on the kernel suite.
//!
//! Each kernel is taken through the pipeline up to allocation (frontend,
//! legalize, jump threading) on every reference machine, then allocated
//! under every budget in {none, 4, 8, 16}, with and without spread, by
//! both strategies. Seeded fuzzer programs in all four languages and
//! synthetic high-pressure loops (values live across a back edge and
//! around memory operations) ride along, because the kernels bind most
//! of their variables to machine registers and rarely spill.
//!
//! A line per (machine, program, budget) holds four configurations in
//! the order spread coloring, spread linear scan, dense coloring, dense
//! linear scan. Each records the report's counters and a hash of its
//! sorted locations plus the rewritten function, including the second
//! allocation round the pipeline runs after re-legalising spill code.
//! The expected lines in `alloc_fingerprints.txt` were computed with the
//! per-vreg `BTreeSet` allocator this crate used before register masks,
//! so any change to a register choice, spill victim or round count shows
//! up as a diff.

use std::fmt::Write as _;

use mcc_bench::kernels::{suite, Lang};
use mcc_core::SourceLang;
use mcc_machine::{AluOp, CondKind, MachineDesc, ShiftOp};
use mcc_mir::{FuncBuilder, MirFunction, Term, VReg};
use mcc_regalloc::{allocate, AllocOptions, AllocReport, Strategy};
use rand::{rngs::StdRng, Rng, SeedableRng};

const MACHINES: [&str; 4] = ["hm1", "vm1", "bx2", "wm64"];
const BUDGETS: [Option<u16>; 4] = [None, Some(4), Some(8), Some(16)];

/// 64-bit FNV-1a: stable across platforms and releases.
fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn frontend(lang: SourceLang, src: &str, m: &MachineDesc) -> Option<MirFunction> {
    match lang {
        SourceLang::Yalll => mcc_yalll::parse(src, m).ok().map(|p| p.func),
        SourceLang::Simpl => mcc_simpl::parse(src, m).ok().map(|p| p.func),
        SourceLang::Empl => mcc_empl::compile(src).ok().map(|p| p.func),
        SourceLang::Sstar => mcc_sstar::parse(src, m).ok().map(|p| p.func),
    }
}

/// A loop over `n` values that all stay live: a preheader loads them, a
/// body of `len` random ops (ALU, shifts, moves, memory reads and writes)
/// rewrites them, and every value is observable at the exit.
fn pressure(seed: u64, n: usize, len: usize) -> MirFunction {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = FuncBuilder::new("pressure");
    let vs: Vec<VReg> = (0..n).map(|_| b.vreg()).collect();
    for (i, &v) in vs.iter().enumerate() {
        b.ldi(v, i as u64 + 1);
    }
    let body = b.new_block();
    let exit = b.new_block();
    b.jump_and_switch(body);
    let pick = |rng: &mut StdRng| vs[rng.gen_range(0..vs.len())];
    for _ in 0..len {
        let (d, x, y) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
        match rng.gen_range(0..8u32) {
            0 => b.alu(AluOp::Add, d, x, y),
            1 => b.alu(AluOp::Xor, d, x, y),
            2 => b.alu(AluOp::And, d, x, y),
            3 => b.alu_imm(AluOp::Sub, d, x, 1),
            4 => b.shift(ShiftOp::Shr, d, x, 1),
            5 => b.mov(d, x),
            6 => b.load(d, x),
            _ => b.store(x, y),
        }
    }
    let t = b.vreg();
    b.alu_un(AluOp::Pass, t, pick(&mut rng));
    b.branch(CondKind::Zero, exit, body);
    b.switch_to(exit);
    for &v in &vs {
        b.mark_live_out(v);
    }
    b.terminate(Term::Halt);
    b.finish()
}

/// The programs under test, named, before legalisation.
fn programs(m: &MachineDesc, machine: &str) -> Vec<(String, Option<MirFunction>)> {
    let mut out = Vec::new();
    for k in suite() {
        let lang = match k.lang {
            Lang::Yalll => SourceLang::Yalll,
            Lang::Simpl => SourceLang::Simpl,
            Lang::Empl => SourceLang::Empl,
        };
        let f = frontend(lang, &(k.source)(m), m);
        assert!(f.is_some(), "kernel {} parses on {machine}", k.name);
        out.push((k.name.to_string(), f));
    }
    for lang in [
        SourceLang::Simpl,
        SourceLang::Empl,
        SourceLang::Sstar,
        SourceLang::Yalll,
    ] {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let src = mcc_fuzz::gen::generate(lang, m, &mut rng);
            out.push((
                format!("fuzz-{}-{seed}", lang.name()),
                frontend(lang, &src, m),
            ));
        }
    }
    for (seed, n, len) in [(1, 6, 12), (2, 12, 30), (3, 24, 60), (4, 40, 80)] {
        out.push((format!("pressure-{n}x{len}"), Some(pressure(seed, n, len))));
    }
    out
}

fn describe(r: &AllocReport) -> String {
    let mut locs: Vec<_> = r
        .locations
        .iter()
        .map(|(v, l)| (v.0, format!("{l:?}")))
        .collect();
    locs.sort();
    format!(
        "spilled={} moves={} rounds={} locs={locs:?}",
        r.spilled, r.spill_moves, r.rounds
    )
}

/// One configuration as `spilled/moves/rounds[+spilled/rounds]:hash`,
/// the bracketed part being the pipeline's second allocation round.
fn fingerprint(m: &MachineDesc, base: &MirFunction, opts: &AllocOptions) -> String {
    let mut f = base.clone();
    let first = match allocate(m, &mut f, opts) {
        Ok(r) => r,
        Err(e) => return format!("err({e})"),
    };
    let mut detail = describe(&first);
    let mut token = format!("{}/{}/{}", first.spilled, first.spill_moves, first.rounds);
    if mcc_mir::legalize(m, &mut f).is_ok() && f.has_virtual_regs() {
        match allocate(m, &mut f, opts) {
            Ok(r) => {
                write!(token, "+{}/{}", r.spilled, r.rounds).unwrap();
                detail.push_str(&describe(&r));
            }
            Err(e) => write!(token, "+err({e})").unwrap(),
        }
    }
    // YALLL emits `live_out` in hash-map order; allocation treats it as
    // a set, so only its sorted form is pinned.
    f.live_out.sort();
    write!(token, ":{:016x}", fnv(&format!("{detail} {f:?}"))).unwrap();
    token
}

fn all_fingerprints() -> String {
    let mut out = String::new();
    for name in MACHINES {
        let m = mcc_machine::machines::by_name(name).expect("reference machine");
        for (prog, f) in programs(&m, name) {
            let Some(mut base) = f else {
                writeln!(out, "{name}/{prog}: frontend rejects").unwrap();
                continue;
            };
            if let Err(e) = mcc_mir::legalize(&m, &mut base) {
                writeln!(out, "{name}/{prog}: legalize: {e}").unwrap();
                continue;
            }
            mcc_core::thread_jumps(&mut base);
            for budget in BUDGETS {
                let b = budget.map_or("none".to_string(), |b| b.to_string());
                write!(out, "{name}/{prog} budget={b}:").unwrap();
                for spread in [true, false] {
                    for strategy in [Strategy::Coloring, Strategy::LinearScan] {
                        let opts = AllocOptions {
                            strategy,
                            budget,
                            spread,
                        };
                        write!(out, " {}", fingerprint(&m, &base, &opts)).unwrap();
                    }
                }
                out.push('\n');
            }
        }
    }
    out
}

#[test]
fn allocation_decisions_match_the_pinned_fingerprints() {
    let got = all_fingerprints();
    let want = include_str!("alloc_fingerprints.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "fingerprint line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "configuration count"
    );
}
