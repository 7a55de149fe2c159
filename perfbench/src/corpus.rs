//! The benchmark's program corpus: the kernel suite on every reference
//! machine plus the survey's S* multiply demo on HM-1, so all four
//! frontends are measured. Every program carries an independent Rust
//! reference value; nothing here trusts the compiler under test.

use mcc_bench::kernels::{suite, Kernel, Lang};
use mcc_core::{Artifact, Compiler, SourceLang};
use mcc_machine::MachineDesc;
use mcc_sim::{SimOptions, Simulator};

/// The wire names of the four reference machines, in table order.
pub const MACHINES: [&str; 4] = ["hm1", "vm1", "bx2", "wm64"];

/// The survey's §2.2.3 S* example: multiply 6 by 7 by repeated addition.
const MPY_SRC: &str = include_str!("../../demos/mpy.ss");

/// How a program's result is read back and what it must equal.
#[derive(Clone, Copy)]
enum Check {
    /// Index into the kernel suite (its own reference value).
    Kernel(usize),
    /// `demos/mpy.ss`: `product` must equal 6 × 7 and `ASSERT` must be 0.
    Mpy,
}

/// One program of the corpus.
pub struct Program {
    /// `machine/kernel`, for messages.
    pub name: String,
    /// Wire name of the target machine.
    pub machine_name: &'static str,
    /// The target machine.
    pub machine: MachineDesc,
    /// The source language.
    pub lang: SourceLang,
    /// The source text, without any nonce.
    pub src: String,
    check: Check,
}

/// The corpus plus the kernel table its checks refer to.
pub struct Corpus {
    /// Programs in a fixed order (machine-major, then suite order, then mpy).
    pub programs: Vec<Program>,
    kernels: Vec<Kernel>,
}

/// What one compile + simulate + check produced.
pub struct Outcome {
    /// Encoded control-store words.
    pub words: usize,
    /// Simulated cycles to halt.
    pub cycles: u64,
}

impl Corpus {
    /// Builds the corpus. Deterministic: the seed never changes it.
    pub fn build() -> Corpus {
        let kernels = suite();
        let mut programs = Vec::new();
        for name in MACHINES {
            let machine = mcc_machine::machines::by_name(name).expect("reference machine");
            for (i, k) in kernels.iter().enumerate() {
                programs.push(Program {
                    name: format!("{name}/{}", k.name),
                    machine_name: name,
                    machine: machine.clone(),
                    lang: match k.lang {
                        Lang::Yalll => SourceLang::Yalll,
                        Lang::Simpl => SourceLang::Simpl,
                        Lang::Empl => SourceLang::Empl,
                    },
                    src: (k.source)(&machine),
                    check: Check::Kernel(i),
                });
            }
        }
        programs.push(Program {
            name: "hm1/mpy".to_string(),
            machine_name: "hm1",
            machine: mcc_machine::machines::by_name("hm1").expect("reference machine"),
            lang: SourceLang::Sstar,
            src: MPY_SRC.to_string(),
            check: Check::Mpy,
        });
        Corpus { programs, kernels }
    }

    /// One compiler per program under default options.
    pub fn compilers(&self) -> Vec<Compiler> {
        self.programs
            .iter()
            .map(|p| Compiler::new(p.machine.clone()))
            .collect()
    }

    /// Encodes and simulates `art` (program `i`), checking the result
    /// against the program's reference value.
    pub fn encode_and_check(&self, i: usize, art: &Artifact) -> Result<Outcome, String> {
        let words = art
            .encode()
            .map_err(|e| format!("{}: encode: {e}", self.programs[i].name))?
            .len();
        let cycles = self.simulate_and_check(i, art)?;
        Ok(Outcome { words, cycles })
    }

    /// Simulates `art` (program `i`) and checks its result; returns cycles.
    pub fn simulate_and_check(&self, i: usize, art: &Artifact) -> Result<u64, String> {
        let p = &self.programs[i];
        let mut sim = Simulator::new(art.machine.clone(), &art.program);
        if let Check::Kernel(k) = p.check {
            (self.kernels[k].setup)(&mut sim);
        }
        let stats = sim
            .run(&SimOptions {
                max_cycles: 5_000_000,
                ..Default::default()
            })
            .map_err(|e| format!("{}: simulate: {e}", p.name))?;
        self.check(i, art, &sim)?;
        Ok(stats.cycles)
    }

    fn check(&self, i: usize, art: &Artifact, sim: &Simulator) -> Result<(), String> {
        let p = &self.programs[i];
        let (got, want) = match p.check {
            Check::Kernel(k) => {
                let kernel = &self.kernels[k];
                ((kernel.result)(art, sim), kernel.expected)
            }
            Check::Mpy => {
                let assert = art.read_symbol(sim, "ASSERT");
                if assert != Some(0) {
                    return Err(format!(
                        "{}: ASSERT flag is {assert:?}, want Some(0)",
                        p.name
                    ));
                }
                (art.read_symbol(sim, "product").unwrap_or(u64::MAX), 6 * 7)
            }
        };
        if got == want {
            Ok(())
        } else {
            Err(format!("{}: computed {got}, reference is {want}", p.name))
        }
    }
}

/// `src` with a comment carrying `nonce` in the program's own comment
/// syntax: the compiled artifact is unchanged, but the content address
/// (and so the cache key) is new.
pub fn with_nonce(lang: SourceLang, src: &str, nonce: u64) -> String {
    match lang {
        SourceLang::Yalll => format!("{src}\n; n{nonce:016x}\n"),
        SourceLang::Sstar => format!("{src}\n# n{nonce:016x}\n"),
        SourceLang::Empl => format!("/* n{nonce:016x} */ {src}"),
        SourceLang::Simpl => src.replacen("begin", &format!("begin comment n{nonce:016x};"), 1),
    }
}

/// splitmix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so a seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
