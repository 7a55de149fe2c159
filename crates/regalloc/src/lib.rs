//! # `mcc-regalloc` — register allocation for microprograms
//!
//! §2.1.3 of Sint's survey names the two complications of microlevel
//! register allocation: the register budget is small (16 on the VAX-11,
//! 256 on the CD 480), and the register set is *non-homogeneous* — where a
//! value lives determines which micro-operations can touch it. This crate
//! implements:
//!
//! * **class-constrained graph coloring** (the default): interference from
//!   liveness, per-node candidate sets from the union of admissible
//!   template classes, Chaitin-style simplify/spill,
//! * **linear scan** for comparison,
//! * **spilling** to the machine's local store (scratch file), overflowing
//!   into a reserved area of main memory — "temporarily storing variables
//!   in a reserved area of main memory will sometimes be unavoidable",
//! * a **spread** placement policy that avoids immediate register reuse.
//!   Reuse creates anti/output dependences between independent statements,
//!   which blocks compaction (the allocation/composition interdependence
//!   of §2.1.4); experiment E6's ablation measures the effect.
//!
//! The allocator rewrites the [`MirFunction`] in place: afterwards no
//! virtual registers remain and every operand satisfies some template's
//! class constraints.
//!
//! Data structures: registers are numbered densely, file-major, so every
//! register set (candidates, taken, free) is a fixed-width bit mask whose
//! ascending order is the `(file, index)` order ties are broken in.
//! Everything indexed by vreg is a plain `Vec`; interference stays sparse
//! (a sorted neighbour list per vreg, no dense vreg×vreg matrix), so memory
//! is linear in the function plus its interferences.

use std::collections::HashMap;

use mcc_machine::{MachineDesc, RegRef, Semantic};
use mcc_mir::liveness::Liveness;
use mcc_mir::operand::{Operand, VReg};
use mcc_mir::MirFunction;

mod constraints;
mod mask;
mod spill;

use constraints::Constraints;
use mask::{MaskTable, RegSpace};

/// Allocation strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Chaitin-style graph coloring over class-constrained nodes.
    Coloring,
    /// Linear scan over live intervals.
    LinearScan,
}

/// Options controlling allocation.
#[derive(Debug, Clone)]
pub struct AllocOptions {
    /// The algorithm.
    pub strategy: Strategy,
    /// Restrict every register file to its first `budget` registers
    /// (experiment E6 sweeps this from 4 to 256).
    pub budget: Option<u16>,
    /// Prefer least-recently-used registers over dense reuse, reducing the
    /// false dependences that block compaction.
    pub spread: bool,
}

impl Default for AllocOptions {
    fn default() -> Self {
        AllocOptions {
            strategy: Strategy::Coloring,
            budget: None,
            spread: true,
        }
    }
}

/// Where a variable ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Location {
    /// A machine register.
    Reg(RegRef),
    /// A local-store (scratch file) slot.
    Scratch(RegRef),
    /// A word of main memory at this address (spill overflow area).
    Mem(u64),
}

/// Result of allocation.
#[derive(Debug, Clone)]
pub struct AllocReport {
    /// Final location of every *original* virtual register.
    pub locations: HashMap<VReg, Location>,
    /// How many virtual registers were spilled.
    pub spilled: usize,
    /// How many fill/spill moves were inserted.
    pub spill_moves: usize,
    /// Allocation rounds used (1 = no spilling needed).
    pub rounds: usize,
}

/// Allocation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// A virtual register admits no machine register at all (class
    /// constraints are contradictory).
    NoCandidates(VReg),
    /// Spilling did not converge.
    SpillLoop,
    /// The machine has no spill capacity left (no scratch file, no memory
    /// spill area) and the program does not fit the registers.
    OutOfRegisters(VReg),
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::NoCandidates(v) => write!(f, "{v} admits no register"),
            AllocError::SpillLoop => write!(f, "spilling failed to converge"),
            AllocError::OutOfRegisters(v) => write!(f, "no room to spill {v}"),
        }
    }
}

impl std::error::Error for AllocError {}

/// Base address of the in-memory spill overflow area.
pub const MEM_SPILL_BASE: u64 = 0xFF00;

/// The vregs of `f` in ascending id order, and one past the largest id
/// (the length of every vreg-indexed table of a round).
fn vreg_ids(f: &MirFunction) -> (Vec<u32>, usize) {
    let mut present = vec![false; f.vreg_count as usize];
    let mut mark = |o: Operand| {
        if let Operand::Vreg(v) = o {
            let i = v.0 as usize;
            if i >= present.len() {
                present.resize(i + 1, false);
            }
            present[i] = true;
        }
    };
    for b in &f.blocks {
        for op in &b.ops {
            op.dst
                .into_iter()
                .chain(op.srcs.iter().copied())
                .for_each(&mut mark);
        }
        if let Some(t) = &b.term {
            t.uses().into_iter().for_each(&mut mark);
        }
    }
    f.live_out.iter().copied().for_each(&mut mark);
    let ids = (0..present.len() as u32)
        .filter(|&v| present[v as usize])
        .collect();
    (ids, present.len())
}

/// A set of vreg ids with O(1) insert, remove and clear, iterable in
/// insertion-dependent order (callers only need membership and a walk).
struct SparseSet {
    pos: Vec<u32>,
    items: Vec<u32>,
}

impl SparseSet {
    const ABSENT: u32 = u32::MAX;

    fn new(n: usize) -> Self {
        SparseSet {
            pos: vec![Self::ABSENT; n],
            items: Vec::new(),
        }
    }

    fn insert(&mut self, v: u32) {
        if self.pos[v as usize] == Self::ABSENT {
            self.pos[v as usize] = self.items.len() as u32;
            self.items.push(v);
        }
    }

    fn remove(&mut self, v: u32) {
        let p = self.pos[v as usize];
        if p != Self::ABSENT {
            let last = self.items.pop().expect("member");
            if last != v {
                self.items[p as usize] = last;
                self.pos[last as usize] = p;
            }
            self.pos[v as usize] = Self::ABSENT;
        }
    }

    fn clear(&mut self) {
        for &v in &self.items {
            self.pos[v as usize] = Self::ABSENT;
        }
        self.items.clear();
    }
}

/// Interference data, indexed by vreg id: vreg↔vreg edges plus
/// vreg↔physical conflicts (dense register indices), each a sorted list.
/// Adjacency stays sparse: a dense V×V matrix would be quadratic in the
/// function size.
struct Interference {
    edges: Vec<Vec<u32>>,
    phys: Vec<Vec<u32>>,
    /// Static use counts (spill priority: spill the least used).
    uses: Vec<usize>,
}

impl Interference {
    fn degree(&self, v: usize) -> usize {
        self.edges[v].len() + self.phys[v].len()
    }

    /// One backward walk per block: the definition of each op interferes
    /// with everything live after it, except the source of a move (the
    /// move-coalescing exception).
    fn build(f: &MirFunction, live: &Liveness, space: &RegSpace, nvregs: usize) -> Self {
        let mut edges = vec![Vec::new(); nvregs];
        let mut phys = vec![Vec::new(); nvregs];
        let mut uses = vec![0; nvregs];
        let mut live_v = SparseSet::new(nvregs);
        let mut live_p = vec![0u64; space.words];
        for (bi, b) in f.blocks.iter().enumerate() {
            live_v.clear();
            live_p.fill(0);
            let add = |o: Operand, live_v: &mut SparseSet, live_p: &mut [u64]| match o {
                Operand::Vreg(v) => live_v.insert(v.0),
                Operand::Reg(r) => mask::set(live_p, space.index(r)),
            };
            let term_uses = b.term.iter().flat_map(|t| t.uses());
            for o in live.sets().live_out[bi].iter().copied().chain(term_uses) {
                add(o, &mut live_v, &mut live_p);
            }
            for op in b.ops.iter().rev() {
                if let Some(d) = op.def() {
                    let move_src = if op.sem == Semantic::Move {
                        op.srcs.first().copied()
                    } else {
                        None
                    };
                    let skip_v = |v: u32| move_src == Some(Operand::Vreg(VReg(v)));
                    match d {
                        Operand::Vreg(a) => {
                            let a = a.0;
                            uses[a as usize] += 1;
                            for &v in &live_v.items {
                                if v != a && !skip_v(v) {
                                    edges[a as usize].push(v);
                                    edges[v as usize].push(a);
                                }
                            }
                            for r in mask::ones(&live_p) {
                                if move_src != Some(Operand::Reg(space.reg(r))) {
                                    phys[a as usize].push(r as u32);
                                }
                            }
                            live_v.remove(a);
                        }
                        Operand::Reg(r) => {
                            let ri = space.index(r);
                            for &v in &live_v.items {
                                if !skip_v(v) {
                                    phys[v as usize].push(ri as u32);
                                }
                            }
                            live_p[ri / 64] &= !(1 << (ri % 64));
                        }
                    }
                }
                for &s in &op.srcs {
                    if let Operand::Vreg(v) = s {
                        uses[v.0 as usize] += 1;
                    }
                    add(s, &mut live_v, &mut live_p);
                }
            }
        }
        for list in edges.iter_mut().chain(&mut phys) {
            list.sort_unstable();
            list.dedup();
        }
        Interference { edges, phys, uses }
    }
}

/// Runs register allocation on `f` for machine `m`, rewriting it in place.
///
/// # Errors
///
/// See [`AllocError`]. On success the function contains no virtual
/// registers.
pub fn allocate(
    m: &MachineDesc,
    f: &mut MirFunction,
    opts: &AllocOptions,
) -> Result<AllocReport, AllocError> {
    let mut report = AllocReport {
        locations: HashMap::new(),
        spilled: 0,
        spill_moves: 0,
        rounds: 0,
    };
    let (originals, _) = vreg_ids(f);
    if originals.is_empty() {
        // Every operand is already a machine register.
        report.rounds = 1;
        return Ok(report);
    }
    let is_original = |v: u32| originals.binary_search(&v).is_ok();
    let space = RegSpace::new(m);
    let mut constraints = Constraints::new(m, &space, opts.budget);
    let mut spiller = None;
    // Temporaries created by spill rewriting: spilling them again cannot
    // reduce register pressure (their live ranges are already minimal),
    // and choosing them makes the loop churn forever.
    let mut no_spill: Vec<bool> = Vec::new();
    let spillable = |no_spill: &[bool], v: u32| !no_spill.get(v as usize).copied().unwrap_or(false);

    for _round in 0..64 {
        report.rounds += 1;
        let (nodes, nvregs) = vreg_ids(f);
        if nodes.is_empty() {
            finalize(f, &report.locations);
            return Ok(report);
        }
        let cand = constraints.candidates(f, &nodes, nvregs);
        let mut counts = vec![0; nvregs];
        for &v in &nodes {
            counts[v as usize] = mask::count(cand.row(v as usize));
            if counts[v as usize] == 0 {
                return Err(AllocError::NoCandidates(VReg(v)));
            }
        }

        let live = Liveness::compute(f);
        let graph = Interference::build(f, &live, &space, nvregs);
        let mut picker = Picker::new(&space, opts.spread);

        let assign = match opts.strategy {
            Strategy::Coloring => color(&graph, &nodes, &cand, &counts, &mut picker),
            Strategy::LinearScan => linear_scan(f, &live, &graph, &cand, &mut picker),
        };

        match assign {
            Ok(colors) => {
                for &v in &nodes {
                    if let (Some(r), true) = (colors[v as usize], is_original(v)) {
                        report
                            .locations
                            .insert(VReg(v), Location::Reg(space.reg(r)));
                    }
                }
                rewrite(f, &colors, &space);
                finalize(f, &report.locations);
                return Ok(report);
            }
            Err(failed) => {
                // Pick the victim: the failed node itself when it is a
                // real variable; otherwise (a spill temporary) the
                // highest-degree spillable variable still in play.
                let victim = if spillable(&no_spill, failed) {
                    failed
                } else {
                    nodes
                        .iter()
                        .copied()
                        .filter(|&v| spillable(&no_spill, v))
                        .max_by_key(|&v| (graph.degree(v as usize), std::cmp::Reverse(v)))
                        .ok_or(AllocError::OutOfRegisters(VReg(failed)))?
                };
                let victim = VReg(victim);
                let spiller = spiller.get_or_insert_with(|| spill::Spiller::new(m));
                let loc = spiller
                    .next_slot()
                    .ok_or(AllocError::OutOfRegisters(victim))?;
                if is_original(victim.0) {
                    report.locations.insert(victim, loc_of(&loc));
                }
                report.spilled += 1;
                let before = f.vreg_count as usize;
                report.spill_moves += spiller.rewrite(f, victim, &loc);
                no_spill.resize(f.vreg_count as usize, false);
                no_spill[before..].fill(true);
            }
        }
    }
    Err(AllocError::SpillLoop)
}

fn loc_of(s: &spill::Slot) -> Location {
    match s {
        spill::Slot::Scratch(r) => Location::Scratch(*r),
        spill::Slot::Mem(a) => Location::Mem(*a),
    }
}

/// Register choice among the candidates not taken. Dense mode takes the
/// lowest free register. Spread mode takes the lowest free register never
/// assigned so far, else the free register assigned longest ago: the
/// least-recently-used order that avoids serial reuse.
struct Picker {
    spread: bool,
    /// Tick of each register's last assignment (0 = never).
    last_used: Vec<usize>,
    /// Registers assigned at least once.
    used: Vec<u64>,
    tick: usize,
    free: Vec<u64>,
}

impl Picker {
    fn new(space: &RegSpace, spread: bool) -> Self {
        Picker {
            spread,
            last_used: vec![0; space.len()],
            used: vec![0; space.words],
            tick: 0,
            free: vec![0; space.words],
        }
    }

    fn pick(&mut self, cand: &[u64], taken: &[u64]) -> Option<usize> {
        for ((f, c), t) in self.free.iter_mut().zip(cand).zip(taken) {
            *f = c & !t;
        }
        let (free, used) = (&self.free, &self.used);
        let fresh = |w: usize| {
            if self.spread {
                free[w] & !used[w]
            } else {
                free[w]
            }
        };
        let r = (0..free.len())
            .find(|&w| fresh(w) != 0)
            .map(|w| w * 64 + fresh(w).trailing_zeros() as usize)
            .or_else(|| mask::ones(free).min_by_key(|&r| self.last_used[r]))?;
        self.tick += 1;
        self.last_used[r] = self.tick;
        mask::set(&mut self.used, r);
        Some(r)
    }
}

/// Chaitin's simplify: the order to color `nodes` in, last first.
fn simplify(g: &Interference, nodes: &[u32], counts: &[usize]) -> Vec<usize> {
    let mut removed = vec![false; counts.len()];
    let mut degree: Vec<usize> = (0..counts.len()).map(|v| g.degree(v)).collect();
    let mut stack = Vec::with_capacity(nodes.len());
    let remove = |v: usize, removed: &mut [bool], degree: &mut [usize], stack: &mut Vec<usize>| {
        stack.push(v);
        removed[v] = true;
        for &nb in &g.edges[v] {
            degree[nb as usize] -= 1;
        }
    };
    loop {
        // Sweep in ascending order, removing every node whose candidate
        // count exceeds its remaining degree (guaranteed colorable).
        let mut progressed = false;
        for &v in nodes {
            let v = v as usize;
            if !removed[v] && counts[v] > degree[v] {
                remove(v, &mut removed, &mut degree, &mut stack);
                progressed = true;
            }
        }
        if stack.len() == nodes.len() {
            return stack;
        }
        if !progressed {
            // Optimistically push the cheapest node; if it fails to color
            // below, it becomes the spill. Low use / high degree → spill
            // first, scaled to avoid float ordering.
            let v = nodes
                .iter()
                .map(|&v| v as usize)
                .filter(|&v| !removed[v])
                .min_by_key(|&v| (g.uses[v] * 1000 / g.degree(v).max(1), v))
                .expect("nodes remain");
            remove(v, &mut removed, &mut degree, &mut stack);
        }
    }
}

/// Chaitin-style coloring. Returns each vreg's dense register index, or
/// `Err(vreg)` naming a spill candidate when coloring fails.
fn color(
    g: &Interference,
    nodes: &[u32],
    cand: &MaskTable,
    counts: &[usize],
    picker: &mut Picker,
) -> Result<Vec<Option<usize>>, u32> {
    let mut stack = simplify(g, nodes, counts);
    // Select: pop and color.
    let mut colors = vec![None; counts.len()];
    let mut taken = vec![0u64; cand.words()];
    while let Some(v) = stack.pop() {
        taken.fill(0);
        for &r in &g.phys[v] {
            mask::set(&mut taken, r as usize);
        }
        for &nb in &g.edges[v] {
            if let Some(c) = colors[nb as usize] {
                mask::set(&mut taken, c);
            }
        }
        colors[v] = Some(picker.pick(cand.row(v), &taken).ok_or(v as u32)?);
    }
    Ok(colors)
}

/// Linear-scan allocation over linearised live intervals.
fn linear_scan(
    f: &MirFunction,
    live: &Liveness,
    g: &Interference,
    cand: &MaskTable,
    picker: &mut Picker,
) -> Result<Vec<Option<usize>>, u32> {
    let n = g.uses.len();
    // Linear positions: block order, op order; block boundaries count.
    let mut intervals: Vec<Option<(usize, usize)>> = vec![None; n];
    let mut touch = |o: Operand, p: usize| {
        if let Operand::Vreg(v) = o {
            let e = intervals[v.0 as usize].get_or_insert((p, p));
            e.0 = e.0.min(p);
            e.1 = e.1.max(p);
        }
    };
    let mut pos = 0usize;
    for (bi, b) in f.blocks.iter().enumerate() {
        let start = pos;
        for op in &b.ops {
            pos += 1;
            op.dst
                .into_iter()
                .chain(op.srcs.iter().copied())
                .for_each(|o| touch(o, pos));
        }
        pos += 1; // terminator position
        if let Some(t) = &b.term {
            t.uses().into_iter().for_each(|o| touch(o, pos));
        }
        // Live-through extension.
        for &o in &live.sets().live_in[bi] {
            touch(o, start);
        }
        for &o in &live.sets().live_out[bi] {
            touch(o, pos);
        }
    }

    let mut order: Vec<usize> = (0..n).filter(|&v| intervals[v].is_some()).collect();
    order.sort_by_key(|&v| intervals[v].map(|(s, _)| s));

    let mut active: Vec<(usize, usize, usize)> = Vec::new(); // (end, vreg, reg)
    let mut colors = vec![None; n];
    let mut taken = vec![0u64; cand.words()];
    for v in order {
        let (start, end) = intervals[v].expect("ordered vregs have intervals");
        active.retain(|&(e, _, _)| e >= start);
        taken.fill(0);
        for &(_, _, r) in &active {
            mask::set(&mut taken, r);
        }
        for &r in &g.phys[v] {
            mask::set(&mut taken, r as usize);
        }
        match picker.pick(cand.row(v), &taken) {
            Some(r) => {
                colors[v] = Some(r);
                active.push((end, v, r));
            }
            None => {
                // Spill the active interval ending last (Poletto-style),
                // or this one if it ends last.
                let victim = active
                    .iter()
                    .filter(|&&(_, _, r)| mask::contains(cand.row(v), r))
                    .max_by_key(|&&(e, _, _)| e)
                    .map(|&(_, av, _)| av);
                return Err(match victim {
                    Some(av) if intervals[av].is_some_and(|(_, e)| e > end) => av,
                    _ => v,
                } as u32);
            }
        }
    }
    Ok(colors)
}

/// Substitutes assigned registers (dense indices) for vregs everywhere.
fn rewrite(f: &mut MirFunction, colors: &[Option<usize>], space: &RegSpace) {
    let fix = |o: &mut Operand| {
        if let Operand::Vreg(v) = o {
            if let Some(&Some(r)) = colors.get(v.0 as usize) {
                *o = Operand::Reg(space.reg(r));
            }
        }
    };
    for b in &mut f.blocks {
        for op in &mut b.ops {
            if let Some(d) = &mut op.dst {
                fix(d);
            }
            for s in &mut op.srcs {
                fix(s);
            }
        }
        if let Some(mcc_mir::Term::Dispatch { src, .. }) = &mut b.term {
            fix(src);
        }
    }
    for o in &mut f.live_out {
        fix(o);
    }
}

/// Replaces any remaining vreg entries in `live_out` (spilled variables —
/// their value is observable in the spill slot instead).
fn finalize(f: &mut MirFunction, locations: &HashMap<VReg, Location>) {
    f.live_out.retain(|o| match o {
        Operand::Vreg(v) => !matches!(
            locations.get(v),
            Some(Location::Scratch(_)) | Some(Location::Mem(_))
        ),
        Operand::Reg(_) => true,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::{hm1, wm64};
    use mcc_machine::AluOp;
    use mcc_mir::{FuncBuilder, Term};

    #[test]
    fn simple_allocation_assigns_distinct_regs() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        let z = b.vreg();
        b.ldi(x, 1);
        b.ldi(y, 2);
        b.alu(AluOp::Add, z, x, y);
        b.mark_live_out(z);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let rep = allocate(&m, &mut f, &AllocOptions::default()).unwrap();
        assert!(!f.has_virtual_regs());
        assert_eq!(rep.spilled, 0);
        let rx = rep.locations[&x];
        let ry = rep.locations[&y];
        assert_ne!(rx, ry, "x and y are simultaneously live");
    }

    #[test]
    fn dead_values_share_registers() {
        // x dead after its use; y may reuse x's register (greedy mode).
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        let o1 = b.vreg();
        let o2 = b.vreg();
        b.ldi(x, 1);
        b.alu_imm(AluOp::Add, o1, x, 1);
        b.ldi(y, 2);
        b.alu_imm(AluOp::Add, o2, y, 1);
        b.mark_live_out(o1);
        b.mark_live_out(o2);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let opts = AllocOptions {
            spread: false,
            ..Default::default()
        };
        let rep = allocate(&m, &mut f, &opts).unwrap();
        assert_eq!(rep.locations[&x], rep.locations[&y], "greedy reuses");
    }

    #[test]
    fn spread_avoids_immediate_reuse() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        let o1 = b.vreg();
        let o2 = b.vreg();
        b.ldi(x, 1);
        b.alu_imm(AluOp::Add, o1, x, 1);
        b.ldi(y, 2);
        b.alu_imm(AluOp::Add, o2, y, 1);
        b.mark_live_out(o1);
        b.mark_live_out(o2);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let rep = allocate(&m, &mut f, &AllocOptions::default()).unwrap();
        assert_ne!(
            rep.locations[&x], rep.locations[&y],
            "spread picks a fresh register"
        );
    }

    #[test]
    fn budget_forces_spills() {
        // Nine simultaneously-live values under a budget of 4.
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let vs: Vec<_> = (0..9).map(|_| b.vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.ldi(v, i as u64);
        }
        // Sum them all so they are live together.
        let acc = b.vreg();
        b.ldi(acc, 0);
        for &v in &vs {
            b.alu(AluOp::Add, acc, acc, v);
        }
        b.mark_live_out(acc);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let opts = AllocOptions {
            budget: Some(4),
            ..Default::default()
        };
        let rep = allocate(&m, &mut f, &opts).unwrap();
        assert!(rep.spilled > 0, "must spill under a 4-register budget");
        assert!(!f.has_virtual_regs());
        assert!(rep.spill_moves > 0);
        // Spilled variables report scratch/memory locations.
        assert!(rep
            .locations
            .values()
            .any(|l| matches!(l, Location::Scratch(_) | Location::Mem(_))));
    }

    #[test]
    fn no_spills_with_ample_registers() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let vs: Vec<_> = (0..9).map(|_| b.vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.ldi(v, i as u64);
        }
        let acc = b.vreg();
        b.ldi(acc, 0);
        for &v in &vs {
            b.alu(AluOp::Add, acc, acc, v);
        }
        b.mark_live_out(acc);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let rep = allocate(&m, &mut f, &AllocOptions::default()).unwrap();
        assert_eq!(rep.spilled, 0);
    }

    #[test]
    fn linear_scan_also_works() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        b.ldi(x, 1);
        b.ldi(y, 2);
        b.alu(AluOp::Add, x, x, y);
        b.mark_live_out(x);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let opts = AllocOptions {
            strategy: Strategy::LinearScan,
            ..Default::default()
        };
        allocate(&m, &mut f, &opts).unwrap();
        assert!(!f.has_virtual_regs());
    }

    #[test]
    fn precolored_registers_are_respected() {
        // A vreg live across a write to R3 must not get R3.
        let m = hm1();
        let rfile = m.find_file("R").unwrap();
        let r3 = mcc_machine::RegRef::new(rfile, 3);
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        b.ldi(x, 1);
        b.ldi(Operand::Reg(r3), 99);
        b.alu(AluOp::Add, x, x, Operand::Reg(r3));
        b.mark_live_out(x);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let rep = allocate(&m, &mut f, &AllocOptions::default()).unwrap();
        assert_ne!(rep.locations[&x], Location::Reg(r3));
    }

    #[test]
    fn terminator_source_is_live_through_its_block() {
        // x is read only by the block's own dispatch, so it stays live
        // past the later defs of y and z and must not share a register
        // with them, even when the greedy policy would reuse one.
        let m = hm1();
        for strategy in [Strategy::Coloring, Strategy::LinearScan] {
            let mut b = FuncBuilder::new("t");
            let x = b.vreg();
            let y = b.vreg();
            let z = b.vreg();
            b.ldi(x, 1);
            b.ldi(y, 2);
            b.alu_imm(AluOp::Add, z, y, 1);
            let t0 = b.new_block();
            let t1 = b.new_block();
            b.terminate(Term::Dispatch {
                src: x.into(),
                mask: 1,
                table: vec![t0, t1],
            });
            for t in [t0, t1] {
                b.switch_to(t);
                b.terminate(Term::Halt);
            }
            b.mark_live_out(z);
            let mut f = b.finish();
            let opts = AllocOptions {
                strategy,
                spread: false,
                ..Default::default()
            };
            let rep = allocate(&m, &mut f, &opts).unwrap();
            assert_ne!(rep.locations[&x], rep.locations[&y], "{strategy:?}");
            assert_ne!(rep.locations[&x], rep.locations[&z], "{strategy:?}");
        }
    }

    #[test]
    fn fifty_thousand_short_lived_vregs_allocate_in_one_round() {
        // A straight-line running sum on WM-64: 50 000 vregs, never more
        // than three live at once. Candidates, liveness and interference
        // are linear in the function, so this is quick; one candidate
        // scan per vreg or a dense vreg×vreg matrix would not be.
        let m = wm64();
        let mut b = FuncBuilder::new("sum");
        let mut acc = b.vreg();
        b.ldi(acc, 1);
        for i in 1..25_000 {
            let x = b.vreg();
            b.ldi(x, i & 0xFF);
            let next = b.vreg();
            b.alu(AluOp::Add, next, acc, x);
            acc = next;
        }
        let out = b.vreg();
        b.mov(out, acc);
        b.mark_live_out(out);
        b.terminate(Term::Halt);
        let mut f = b.finish();
        assert_eq!(f.vreg_count, 50_000);
        let rep = allocate(&m, &mut f, &AllocOptions::default()).unwrap();
        assert_eq!((rep.rounds, rep.spilled), (1, 0));
        assert!(!f.has_virtual_regs());
        assert_eq!(rep.locations.len(), 50_000);
    }

    #[test]
    fn special_registers_never_allocated() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let vs: Vec<_> = (0..14).map(|_| b.vreg()).collect();
        for (i, &v) in vs.iter().enumerate() {
            b.ldi(v, i as u64);
            b.mark_live_out(v);
        }
        b.terminate(Term::Halt);
        let mut f = b.finish();
        let rep = allocate(&m, &mut f, &AllocOptions::default()).unwrap();
        for loc in rep.locations.values() {
            if let Location::Reg(r) = loc {
                assert_ne!(Some(*r), m.special.mar);
                assert_ne!(Some(*r), m.special.mbr);
                assert_ne!(Some(*r), m.special.flags);
            }
        }
    }
}
