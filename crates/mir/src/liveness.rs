//! Liveness analysis over MIR.
//!
//! Tracks *both* virtual and physical register operands (a function may
//! mix them: YALLL binds some variables to machine registers while the
//! compiler allocates the rest — §2.2.4 of the paper leaves it open
//! whether binding is required for all).
//!
//! Liveness by variable: instead of iterating per-block sets to a
//! fixpoint, each operand is walked backwards from the blocks that read it
//! before writing it (and from the exit blocks when it is a function
//! result), through predecessors, until a block that writes it stops the
//! walk. That reaches the least fixpoint of the classic dataflow equations
//! at a cost proportional to the size of the live sets.

use crate::func::{MirFunction, Term};
use crate::operand::{Operand, VReg};

/// Per-block live-in/live-out sets, each sorted ascending.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveSets {
    /// Operands live on entry to each block.
    pub live_in: Vec<Vec<Operand>>,
    /// Operands live on exit from each block.
    pub live_out: Vec<Vec<Operand>>,
}

/// Liveness analysis results.
#[derive(Debug, Clone)]
pub struct Liveness {
    sets: LiveSets,
}

impl Liveness {
    /// Runs the analysis.
    pub fn compute(f: &MirFunction) -> Self {
        // The variables: vreg ids, then the distinct physical registers in
        // ascending order — `Operand` order, so every set below comes out
        // sorted.
        let mut nvregs = f.vreg_count;
        let mut phys = Vec::new();
        let mut note = |o: &Operand| match *o {
            Operand::Vreg(v) => nvregs = nvregs.max(v.0 + 1),
            Operand::Reg(r) => phys.push(r),
        };
        f.live_out.iter().for_each(&mut note);
        for b in &f.blocks {
            for op in &b.ops {
                op.dst.iter().chain(&op.srcs).for_each(&mut note);
            }
            b.term.iter().flat_map(|t| t.uses()).for_each(|o| note(&o));
        }
        phys.sort_unstable();
        phys.dedup();
        let var = |o: Operand| match o {
            Operand::Vreg(v) => v.0,
            Operand::Reg(r) => nvregs + phys.binary_search(&r).expect("collected register") as u32,
        };
        let operand = |x: u32| match x.checked_sub(nvregs) {
            None => Operand::Vreg(VReg(x)),
            Some(i) => Operand::Reg(phys[i as usize]),
        };
        let nvars = nvregs as usize + phys.len();
        let n = f.blocks.len();

        // Per block: operands read before any write (as (var, block)),
        // operands written, predecessors and whether it exits.
        let mut exposed = Vec::new();
        let mut defs = Vec::new();
        let mut preds = vec![Vec::new(); n];
        let mut exits = Vec::new();
        let mut written = vec![u32::MAX; nvars];
        let mut read = vec![u32::MAX; nvars];
        for (bi, b) in f.blocks.iter().enumerate() {
            let bi = bi as u32;
            let mut use_of = |x: u32, written: &[u32]| {
                if written[x as usize] != bi && read[x as usize] != bi {
                    read[x as usize] = bi;
                    exposed.push((x, bi));
                }
            };
            for op in &b.ops {
                for &s in &op.srcs {
                    use_of(var(s), &written);
                }
                if let Some(d) = op.dst {
                    let x = var(d);
                    if written[x as usize] != bi {
                        written[x as usize] = bi;
                        defs.push((x, bi));
                    }
                }
            }
            match &b.term {
                Some(Term::Ret) | Some(Term::Halt) => exits.push(bi),
                Some(t) => {
                    for u in t.uses() {
                        use_of(var(u), &written);
                    }
                    for s in t.successors() {
                        preds[s as usize].push(bi);
                    }
                }
                None => {}
            }
        }
        exposed.sort_unstable();
        defs.sort_unstable();
        let mut results: Vec<u32> = f.live_out.iter().map(|&o| var(o)).collect();
        results.sort_unstable();

        // Walk each variable in turn. Marks hold the variable last walked,
        // so they never need clearing.
        let mut live_in = Vec::new();
        let mut live_out = Vec::new();
        let mut in_mark = vec![u32::MAX; n];
        let mut out_mark = vec![u32::MAX; n];
        let mut def_mark = vec![u32::MAX; n];
        let (mut next_exposed, mut next_def) = (0, 0);
        // Blocks the variable is live into, and blocks it is live out of,
        // still to propagate.
        let mut work = Vec::new();
        let mut outs = Vec::new();
        for x in 0..nvars as u32 {
            while next_def < defs.len() && defs[next_def].0 == x {
                def_mark[defs[next_def].1 as usize] = x;
                next_def += 1;
            }
            while next_exposed < exposed.len() && exposed[next_exposed].0 == x {
                let b = exposed[next_exposed].1;
                in_mark[b as usize] = x;
                live_in.push((b, x));
                work.push(b);
                next_exposed += 1;
            }
            if results.binary_search(&x).is_ok() {
                outs.extend_from_slice(&exits);
            }
            loop {
                while let Some(b) = outs.pop() {
                    let bu = b as usize;
                    if out_mark[bu] == x {
                        continue;
                    }
                    out_mark[bu] = x;
                    live_out.push((b, x));
                    if def_mark[bu] != x && in_mark[bu] != x {
                        in_mark[bu] = x;
                        live_in.push((b, x));
                        work.push(b);
                    }
                }
                let Some(b) = work.pop() else { break };
                outs.extend_from_slice(&preds[b as usize]);
            }
        }

        let by_block = |mut pairs: Vec<(u32, u32)>| {
            pairs.sort_unstable();
            let mut sets = vec![Vec::new(); n];
            for (b, x) in pairs {
                sets[b as usize].push(operand(x));
            }
            sets
        };
        Liveness {
            sets: LiveSets {
                live_in: by_block(live_in),
                live_out: by_block(live_out),
            },
        }
    }

    /// The computed sets.
    pub fn sets(&self) -> &LiveSets {
        &self.sets
    }
}

/// The classic iterative dataflow this module replaced, kept as the
/// reference the per-variable walk is tested against.
#[cfg(test)]
mod oracle {
    use std::collections::HashSet;

    use crate::func::{MirFunction, Term};
    use crate::operand::Operand;

    /// Per-block `(live_in, live_out)` sets.
    pub fn compute(f: &MirFunction) -> (Vec<HashSet<Operand>>, Vec<HashSet<Operand>>) {
        let n = f.blocks.len();
        let mut live_in = vec![HashSet::new(); n];
        let mut live_out = vec![HashSet::new(); n];

        // use/def per block.
        let mut uses = vec![HashSet::new(); n];
        let mut defs = vec![HashSet::new(); n];
        for (i, b) in f.blocks.iter().enumerate() {
            for op in &b.ops {
                for &s in op.uses() {
                    if !defs[i].contains(&s) {
                        uses[i].insert(s);
                    }
                }
                if let Some(d) = op.def() {
                    defs[i].insert(d);
                }
            }
            if let Some(t) = &b.term {
                for u in t.uses() {
                    if !defs[i].contains(&u) {
                        uses[i].insert(u);
                    }
                }
            }
        }

        // Exit blocks see the function's observable results.
        let exit_live: HashSet<Operand> = f.live_out.iter().copied().collect();

        let mut changed = true;
        while changed {
            changed = false;
            for i in (0..n).rev() {
                let mut out: HashSet<Operand> = HashSet::new();
                match &f.blocks[i].term {
                    Some(Term::Ret) | Some(Term::Halt) => out.extend(exit_live.iter().copied()),
                    Some(t) => {
                        for s in t.successors() {
                            out.extend(live_in[s as usize].iter().copied());
                        }
                    }
                    None => {}
                }
                let mut inn: HashSet<Operand> = uses[i].clone();
                for &o in &out {
                    if !defs[i].contains(&o) {
                        inn.insert(o);
                    }
                }
                if out != live_out[i] {
                    live_out[i] = out;
                    changed = true;
                }
                if inn != live_in[i] {
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }

        (live_in, live_out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::FuncBuilder;
    use crate::MirOp;
    use mcc_machine::ids::FileId;
    use mcc_machine::{AluOp, CondKind, RegRef, Semantic};
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn straight_line_liveness() {
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        b.ldi(x, 1);
        b.alu_imm(AluOp::Add, y, x, 2);
        b.mark_live_out(y);
        b.terminate(crate::Term::Halt);
        let f = b.finish();
        let l = Liveness::compute(&f);
        // y is live out of the (only) block; x is not.
        assert!(l.sets().live_out[0].contains(&Operand::Vreg(y)));
        assert!(!l.sets().live_in[0].contains(&Operand::Vreg(x)), "x is defined locally");
    }

    #[test]
    fn loop_carried_liveness() {
        // b0: ldi x; jump b1
        // b1: pass x (flags); br zero -> b3 else b2
        // b2: sub x, x, 1; jump b1
        // b3: halt (x live out)
        let mut b = FuncBuilder::new("l");
        let x = b.vreg();
        b.ldi(x, 3);
        let head = b.new_block();
        let body = b.new_block();
        let done = b.new_block();
        b.jump_and_switch(head);
        b.alu_un(AluOp::Pass, x, x);
        b.branch(CondKind::Zero, done, body);
        b.switch_to(body);
        b.alu_imm(AluOp::Sub, x, x, 1);
        b.terminate(crate::Term::Jump(head));
        b.switch_to(done);
        b.mark_live_out(x);
        b.terminate(crate::Term::Halt);
        let f = b.finish();
        let l = Liveness::compute(&f);
        // x live around the back edge.
        for blk in 0..4 {
            assert!(
                l.sets().live_in[blk].contains(&Operand::Vreg(x))
                    || blk == 0,
                "x should be live into b{blk}"
            );
        }
    }

    #[test]
    fn dispatch_source_is_live() {
        // b0: ldi x; jump b1 — b1: dispatch on x.
        let mut b = FuncBuilder::new("d");
        let x = b.vreg();
        b.ldi(x, 0);
        let head = b.new_block();
        let t0 = b.new_block();
        let t1 = b.new_block();
        b.jump_and_switch(head);
        b.terminate(crate::Term::Dispatch {
            src: x.into(),
            mask: 1,
            table: vec![t0, t1],
        });
        for t in [t0, t1] {
            b.switch_to(t);
            b.terminate(crate::Term::Halt);
        }
        let f = b.finish();
        let l = Liveness::compute(&f);
        assert_eq!(l.sets().live_out[0], vec![Operand::Vreg(x)]);
        assert_eq!(l.sets().live_in[head as usize], vec![Operand::Vreg(x)]);
        assert!(l.sets().live_out[head as usize].is_empty());
    }

    /// One random block: `(kind, dst, src, src)` op codes, then the
    /// terminator kind and two target picks.
    type Block = (Vec<(u32, u32, u32, u32)>, u32, u32, u32);

    /// A random CFG over six vregs and three physical registers, with
    /// back edges, dispatches, exits and blocks left without successors.
    fn program(blocks: &[Block]) -> MirFunction {
        let mut b = FuncBuilder::new("p");
        let vs: Vec<_> = (0..6).map(|_| b.vreg()).collect();
        let opnd = |k: u32| -> Operand {
            match k {
                k if k < 6 => vs[k as usize].into(),
                k => RegRef::new(FileId(k as u16 % 2), k as u16).into(),
            }
        };
        let n = blocks.len() as u32;
        let ids: Vec<u32> = std::iter::once(b.current())
            .chain((1..n).map(|_| b.new_block()))
            .collect();
        for (i, (ops, kind, t1, t2)) in blocks.iter().enumerate() {
            b.switch_to(ids[i]);
            for &(k, d, x, y) in ops {
                match k {
                    0 => b.alu(AluOp::Add, opnd(d), opnd(x), opnd(y)),
                    1 => b.mov(opnd(d), opnd(x)),
                    2 => b.ldi(opnd(d), 1),
                    _ => b.push(MirOp::new(Semantic::MemRead)),
                }
            }
            let (t1, t2) = (ids[(*t1 % n) as usize], ids[(*t2 % n) as usize]);
            b.terminate(match kind {
                0 => Term::Jump(t1),
                1 => Term::Branch {
                    cond: CondKind::Zero,
                    then_block: t1,
                    else_block: t2,
                },
                2 => Term::Dispatch {
                    src: opnd(t2 % 9),
                    mask: 1,
                    table: vec![t1, t2, t1],
                },
                3 => Term::Ret,
                _ => Term::Halt,
            });
        }
        b.mark_live_out(vs[0]);
        b.mark_live_out(opnd(7));
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn matches_the_dataflow_fixpoint(
            blocks in proptest::collection::vec(
                (
                    proptest::collection::vec((0u32..4, 0u32..9, 0u32..9, 0u32..9), 0..6),
                    0u32..5,
                    0u32..8,
                    0u32..8,
                ),
                1..8,
            ),
        ) {
            let f = program(&blocks);
            let l = Liveness::compute(&f);
            let (want_in, want_out) = oracle::compute(&f);
            for bi in 0..f.blocks.len() {
                for (got, want) in [
                    (&l.sets().live_in[bi], &want_in[bi]),
                    (&l.sets().live_out[bi], &want_out[bi]),
                ] {
                    prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted, no repeats");
                    prop_assert_eq!(&got.iter().copied().collect::<HashSet<_>>(), want);
                }
            }
        }
    }
}
