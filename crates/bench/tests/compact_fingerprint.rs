//! Pins every compaction decision on the kernel suite.
//!
//! Each program is taken through the pipeline up to instruction selection
//! (frontend, legalize, jump threading, allocation with its second round,
//! dead-flag marking) on every reference machine, then emitted under every
//! algorithm, both conflict models and two exact-search node budgets. The
//! programs are the eight kernels plus seeded fuzzer programs in all four
//! languages.
//!
//! A line per (machine, program) holds one token per configuration, in the
//! order algorithm × model × budget. Each token is a hash of the emitted
//! `MicroProgram` and `EmitReport`. The expected lines in
//! `compact_fingerprints.txt` were computed with the all-pairs dependence
//! graph and the rescanning list scheduler this crate used before the
//! sparse graph, so any change to a schedule, a chosen candidate, a packed
//! terminator or a degradation event shows up as a diff.

use std::fmt::Write as _;

use mcc_bench::kernels::{suite, Lang};
use mcc_compact::{Algorithm, BB_DEFAULT_BUDGET, BB_MIN_BUDGET};
use mcc_core::SourceLang;
use mcc_machine::{ConflictModel, MachineDesc};
use mcc_mir::select::SelectedFunction;
use mcc_mir::MirFunction;
use rand::{rngs::StdRng, SeedableRng};

const MACHINES: [&str; 4] = ["hm1", "vm1", "bx2", "wm64"];
const ALGORITHMS: [Algorithm; 6] = [
    Algorithm::Linear,
    Algorithm::CriticalPath,
    Algorithm::LevelPack,
    Algorithm::Tokoro,
    Algorithm::BranchBound,
    Algorithm::Sequential,
];
const MODELS: [ConflictModel; 2] = [ConflictModel::Coarse, ConflictModel::Fine];
const BUDGETS: [u64; 2] = [BB_MIN_BUDGET, BB_DEFAULT_BUDGET];

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
    for lang in SourceLang::ALL {
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let src = mcc_fuzz::gen::generate(lang, m, &mut rng);
            out.push((
                format!("fuzz-{}-{seed}", lang.name()),
                frontend(lang, &src, m),
            ));
        }
    }
    out
}

/// The compile pipeline up to selection, as `Compiler::compile_mir` runs
/// it with default allocation options and no poll points.
fn select(m: &MachineDesc, mut f: MirFunction) -> Result<SelectedFunction, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    f.validate().map_err(|e| err(&e))?;
    mcc_mir::legalize(m, &mut f).map_err(|e| err(&e))?;
    mcc_core::thread_jumps(&mut f);
    let opts = mcc_regalloc::AllocOptions::default();
    mcc_regalloc::allocate(m, &mut f, &opts).map_err(|e| err(&e))?;
    mcc_mir::legalize(m, &mut f).map_err(|e| err(&e))?;
    if f.has_virtual_regs() {
        mcc_regalloc::allocate(m, &mut f, &opts).map_err(|e| err(&e))?;
    }
    mcc_core::mark_dead_flags(&mut f);
    mcc_mir::select_function(m, &f).map_err(|e| err(&e))
}

fn all_fingerprints() -> String {
    let mut out = String::new();
    for name in MACHINES {
        let m = mcc_machine::machines::by_name(name).expect("reference machine");
        for (prog, f) in programs(&m, name) {
            write!(out, "{name}/{prog}:").unwrap();
            let selected = match f.map(|f| select(&m, f)) {
                None => {
                    writeln!(out, " frontend rejects").unwrap();
                    continue;
                }
                Some(Err(e)) => {
                    writeln!(out, " {e}").unwrap();
                    continue;
                }
                Some(Ok(s)) => s,
            };
            for algo in ALGORITHMS {
                for model in MODELS {
                    for budget in BUDGETS {
                        let (p, report) = mcc_core::emit::emit(&m, &selected, algo, model, budget);
                        let h = fnv(&format!("{p:?} {report:?}"));
                        write!(out, " {}:{h:016x}", p.instr_count()).unwrap();
                    }
                }
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn compaction_decisions_match_the_pinned_fingerprints() {
    let got = all_fingerprints();
    let want = include_str!("compact_fingerprints.txt");
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "fingerprint line {} differs", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "configuration count"
    );
}
