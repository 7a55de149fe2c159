//! Per-vreg candidate masks from template class constraints.
//!
//! "Allocating a variable to a certain register at a certain program point
//! also determines which subset of microoperations can be applied to that
//! variable at that point" (§2.1.3). The allocator therefore intersects,
//! over every occurrence of a virtual register, the union of register
//! classes any realising template admits at that operand position.
//!
//! Those unions depend only on the op's shape (semantic, whether it has a
//! destination, its source count, whether it has an immediate) and the
//! operand position, so [`Constraints`] computes each one once per
//! `allocate` call and every vreg's candidates come from one walk over
//! the ops.

use mcc_machine::{ClassId, MachineDesc, RegRef, Semantic, SrcSpec};
use mcc_mir::operand::Operand;
use mcc_mir::{MirFunction, MirOp, Term};

use crate::mask::{self, MaskTable, RegSpace};

/// Registers never handed out by the allocator: the special registers
/// (MAR/MBR/ACC/flags — they carry implicit template semantics) and the
/// scratch file (reserved for spill slots).
fn reserved(m: &MachineDesc, r: RegRef) -> bool {
    Some(r) == m.special.mar
        || Some(r) == m.special.mbr
        || Some(r) == m.special.acc
        || Some(r) == m.special.flags
        || Some(r.file) == m.scratch_file
        || m.special.flags.map(|f| f.file) == Some(r.file)
}

/// What the position unions of an op depend on.
type Shape = (Semantic, bool, usize, bool);

fn shape(op: &MirOp) -> Shape {
    (op.sem, op.dst.is_some(), op.srcs.len(), op.imm.is_some())
}

/// Candidate computation for one machine, budget and `allocate` call.
pub(crate) struct Constraints<'m> {
    m: &'m MachineDesc,
    space: &'m RegSpace,
    /// Registers neither reserved nor over budget.
    allow: Vec<u64>,
    /// Union masks: a shape's destination row, then one row per source.
    unions: MaskTable,
    /// The shapes seen so far and their first rows (a handful per
    /// function, so a scan beats hashing).
    first_row: Vec<(Shape, usize)>,
    /// Row of the dispatch-index union, once computed.
    dispatch: Option<usize>,
    /// The pool for unconstrained vregs, once computed.
    default_pool: Option<Vec<u64>>,
}

impl<'m> Constraints<'m> {
    pub fn new(m: &'m MachineDesc, space: &'m RegSpace, budget: Option<u16>) -> Self {
        let mut allow = vec![0; space.words];
        for i in 0..space.len() {
            let r = space.reg(i);
            if !reserved(m, r) && budget.is_none_or(|b| r.index < b) {
                mask::set(&mut allow, i);
            }
        }
        Constraints {
            m,
            space,
            allow,
            unions: MaskTable::new(space.words, 0, false),
            first_row: Vec::new(),
            dispatch: None,
            default_pool: None,
        }
    }

    fn add_class(&mut self, row: usize, c: ClassId) {
        mask::set_class(self.unions.row_mut(row), self.space, self.m.class(c));
    }

    /// First union row of `op`'s shape: the union of class members
    /// admissible at each operand position across all shape-compatible
    /// templates.
    fn shape_rows(&mut self, op: &MirOp) -> usize {
        let key = shape(op);
        if let Some(&(_, row)) = self.first_row.iter().find(|(k, _)| *k == key) {
            return row;
        }
        let first = self.unions.push_empty();
        for _ in 0..op.srcs.len() {
            self.unions.push_empty();
        }
        let m = self.m;
        for tid in m.templates_for(op.sem) {
            let t = m.template(tid);
            // Shape compatibility mirrors `select::try_bind`.
            if t.dst.is_some() != op.dst.is_some()
                || t.reg_src_count() != op.srcs.len()
                || t.has_imm() != op.imm.is_some()
            {
                continue;
            }
            if let Some(c) = t.dst {
                self.add_class(first, c);
            }
            let classes = t.srcs.iter().filter_map(|s| match s {
                SrcSpec::Class(c) => Some(*c),
                SrcSpec::Imm { .. } => None,
            });
            for (i, c) in classes.enumerate() {
                self.add_class(first + 1 + i, c);
            }
        }
        self.first_row.push((key, first));
        first
    }

    /// Row of the dispatch index union.
    fn dispatch_row(&mut self) -> usize {
        if let Some(row) = self.dispatch {
            return row;
        }
        let row = self.unions.push_empty();
        let m = self.m;
        for tid in m.templates_for(Semantic::Dispatch) {
            for s in &m.template(tid).srcs {
                if let SrcSpec::Class(c) = s {
                    self.add_class(row, *c);
                }
            }
        }
        self.dispatch = Some(row);
        row
    }

    /// The candidate pool for unconstrained vregs (e.g. appearing only
    /// in `live_out`): every allowed register of every file that some
    /// template can read *and* write.
    fn default_pool(&mut self) -> &[u64] {
        let (m, space) = (self.m, self.space);
        let allow = &self.allow;
        self.default_pool.get_or_insert_with(|| {
            let mut readable = vec![0; space.words];
            let mut writable = vec![0; space.words];
            let add = |set: &mut [u64], c| mask::set_class(set, space, m.class(c));
            for t in &m.templates {
                if let Some(c) = t.dst {
                    add(&mut writable, c);
                }
                for s in &t.srcs {
                    if let SrcSpec::Class(c) = s {
                        add(&mut readable, *c);
                    }
                }
            }
            mask::and_into(&mut readable, &writable);
            mask::and_into(&mut readable, allow);
            readable
        })
    }

    /// The admissible registers of every vreg in `nodes` (ascending ids,
    /// all below `nvregs`): row `v` of the result holds vreg `v`'s
    /// candidates. Rows of ids not in `nodes` are meaningless.
    pub fn candidates(&mut self, f: &MirFunction, nodes: &[u32], nvregs: usize) -> MaskTable {
        let mut cand = MaskTable::new(self.space.words, nvregs, true);
        let mut constrained = vec![false; nvregs];
        for b in &f.blocks {
            for op in &b.ops {
                let dst = op.dst.and_then(Operand::as_vreg);
                if dst.is_none() && !op.srcs.iter().any(|s| s.is_virtual()) {
                    continue;
                }
                let first = self.shape_rows(op);
                if let Some(v) = dst {
                    cand.and_row(v.0 as usize, &self.unions, first);
                    constrained[v.0 as usize] = true;
                }
                for (i, s) in op.srcs.iter().enumerate() {
                    if let Operand::Vreg(v) = s {
                        cand.and_row(v.0 as usize, &self.unions, first + 1 + i);
                        constrained[v.0 as usize] = true;
                    }
                }
            }
            if let Some(Term::Dispatch {
                src: Operand::Vreg(v),
                ..
            }) = &b.term
            {
                let row = self.dispatch_row();
                cand.and_row(v.0 as usize, &self.unions, row);
                constrained[v.0 as usize] = true;
            }
        }
        for &v in nodes {
            let v = v as usize;
            if constrained[v] {
                mask::and_into(cand.row_mut(v), &self.allow);
            } else {
                cand.row_mut(v).copy_from_slice(self.default_pool());
            }
        }
        cand
    }
}

/// The per-vreg `BTreeSet` computation the masks replaced, kept as the
/// oracle the mask candidates are tested against.
#[cfg(test)]
pub(crate) mod oracle {
    use std::collections::BTreeSet;

    use mcc_machine::{MachineDesc, RegRef, SrcSpec};
    use mcc_mir::operand::{Operand, VReg};
    use mcc_mir::{MirFunction, MirOp};

    use super::reserved;

    /// Union of class members admissible for the operand at `pos` of
    /// `op` across all shape-compatible templates.
    fn position_union(m: &MachineDesc, op: &MirOp, dst: bool, src_idx: usize) -> BTreeSet<RegRef> {
        let mut set = BTreeSet::new();
        for tid in m.templates_for(op.sem) {
            let t = m.template(tid);
            if t.dst.is_some() != op.dst.is_some() {
                continue;
            }
            if t.reg_src_count() != op.srcs.len() {
                continue;
            }
            if t.has_imm() != op.imm.is_some() {
                continue;
            }
            if dst {
                if let Some(c) = t.dst {
                    set.extend(m.class(c).members());
                }
            } else {
                let classes: Vec<_> = t
                    .srcs
                    .iter()
                    .filter_map(|s| match s {
                        SrcSpec::Class(c) => Some(*c),
                        SrcSpec::Imm { .. } => None,
                    })
                    .collect();
                if let Some(c) = classes.get(src_idx) {
                    set.extend(m.class(*c).members());
                }
            }
        }
        set
    }

    fn default_pool(m: &MachineDesc, budget: Option<u16>) -> Vec<RegRef> {
        let mut readable: BTreeSet<RegRef> = BTreeSet::new();
        let mut writable: BTreeSet<RegRef> = BTreeSet::new();
        for t in &m.templates {
            if let Some(c) = t.dst {
                writable.extend(m.class(c).members());
            }
            for s in &t.srcs {
                if let SrcSpec::Class(c) = s {
                    readable.extend(m.class(*c).members());
                }
            }
        }
        readable
            .intersection(&writable)
            .copied()
            .filter(|&r| !reserved(m, r))
            .filter(|&r| budget.is_none_or(|b| r.index < b))
            .collect()
    }

    /// The admissible registers for `v` in `f`, ordered (file, index).
    pub fn allowed_registers(
        m: &MachineDesc,
        f: &MirFunction,
        v: VReg,
        budget: Option<u16>,
    ) -> Vec<RegRef> {
        let mut acc: Option<BTreeSet<RegRef>> = None;
        let mut constrain = |set: BTreeSet<RegRef>| {
            acc = Some(match acc.take() {
                None => set,
                Some(prev) => prev.intersection(&set).copied().collect(),
            });
        };
        for b in &f.blocks {
            for op in &b.ops {
                if op.dst == Some(Operand::Vreg(v)) {
                    constrain(position_union(m, op, true, 0));
                }
                for (i, s) in op.srcs.iter().enumerate() {
                    if *s == Operand::Vreg(v) {
                        constrain(position_union(m, op, false, i));
                    }
                }
            }
            if let Some(mcc_mir::Term::Dispatch { src, .. }) = &b.term {
                if *src == Operand::Vreg(v) {
                    let mut set = BTreeSet::new();
                    for tid in m.templates_for(mcc_machine::Semantic::Dispatch) {
                        for s in &m.template(tid).srcs {
                            if let SrcSpec::Class(c) = s {
                                set.extend(m.class(*c).members());
                            }
                        }
                    }
                    constrain(set);
                }
            }
        }
        match acc {
            Some(set) => set
                .into_iter()
                .filter(|&r| !reserved(m, r))
                .filter(|&r| budget.is_none_or(|b| r.index < b))
                .collect(),
            None => default_pool(m, budget),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_machine::machines::{bx2, hm1, vm1, wm64};
    use mcc_machine::{AluOp, CondKind, ShiftOp};
    use mcc_mir::operand::VReg;
    use mcc_mir::{FuncBuilder, Term};
    use proptest::prelude::*;

    /// Mask candidates of every vreg of `f`, as register lists.
    fn all_candidates(m: &MachineDesc, f: &MirFunction, budget: Option<u16>) -> Vec<Vec<RegRef>> {
        let space = RegSpace::new(m);
        let n = f.vreg_count as usize;
        let nodes: Vec<u32> = (0..n as u32).collect();
        let cand = Constraints::new(m, &space, budget).candidates(f, &nodes, n);
        (0..n)
            .map(|v| mask::ones(cand.row(v)).map(|i| space.reg(i)).collect())
            .collect()
    }

    fn candidates_of(
        m: &MachineDesc,
        f: &MirFunction,
        v: VReg,
        budget: Option<u16>,
    ) -> Vec<RegRef> {
        all_candidates(m, f, budget).swap_remove(v.0 as usize)
    }

    #[test]
    fn alu_operand_constrains_to_alu_classes() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        b.alu(AluOp::Add, y, x, x);
        b.mark_live_out(y);
        b.terminate(Term::Halt);
        let f = b.finish();
        let cand = candidates_of(&m, &f, x, None);
        // alu_left ∩ alu_right = R0..R15 + ACC, minus reserved ACC → 16.
        assert_eq!(cand.len(), 16);
        let rfile = m.find_file("R").unwrap();
        assert!(cand.iter().all(|r| r.file == rfile));
    }

    #[test]
    fn budget_truncates_pool() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        b.ldi(x, 3);
        b.mark_live_out(x);
        b.terminate(Term::Halt);
        let f = b.finish();
        let all = candidates_of(&m, &f, x, None);
        let four = candidates_of(&m, &f, x, Some(4));
        assert!(four.len() < all.len());
        assert!(four.iter().all(|r| r.index < 4));
    }

    #[test]
    fn reserved_registers_excluded() {
        let m = hm1();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        b.ldi(x, 3);
        b.mark_live_out(x);
        b.terminate(Term::Halt);
        let f = b.finish();
        let cand = candidates_of(&m, &f, x, None);
        assert!(!cand.contains(&m.special.mar.unwrap()));
        assert!(!cand.contains(&m.special.mbr.unwrap()));
        // The LS scratch file is reserved for spills even though `mov`
        // could address it.
        let ls = m.find_file("LS").unwrap();
        assert!(cand.iter().all(|r| r.file != ls));
    }

    #[test]
    fn alu1_narrow_class_on_wm64_does_not_block() {
        // On WM-64, `add` is realised by both ALUs; the union is all 256.
        let m = wm64();
        let mut b = FuncBuilder::new("t");
        let x = b.vreg();
        let y = b.vreg();
        b.alu(AluOp::Add, y, x, x);
        b.mark_live_out(y);
        b.terminate(Term::Halt);
        let f = b.finish();
        let cand = candidates_of(&m, &f, x, None);
        assert_eq!(cand.len(), 256);
    }

    /// A random program over twelve vregs and three physical registers:
    /// the usual builder shapes, odd shapes no template admits, several
    /// blocks, dispatches on vregs, and vregs that only appear live-out.
    fn program(m: &MachineDesc, ops: &[(u32, u32, u32, u32, u64)]) -> MirFunction {
        let mut b = FuncBuilder::new("p");
        let vs: Vec<VReg> = (0..14).map(|_| b.vreg()).collect();
        let gp = m.find_file("R").or_else(|| m.find_file("G")).unwrap();
        let phys = [
            Operand::Reg(RegRef::new(gp, 0)),
            Operand::Reg(RegRef::new(gp, 3)),
            Operand::Reg(m.special.mar.unwrap()),
        ];
        let opnd = |k: u32| -> Operand {
            match k as usize {
                k if k < 12 => vs[k].into(),
                k => phys[k % 3],
            }
        };
        for &(kind, d, x, y, imm) in ops {
            let (d, x, y) = (opnd(d), opnd(x), opnd(y));
            match kind {
                0 => b.alu(AluOp::Add, d, x, y),
                1 => b.alu(AluOp::Sub, d, x, y),
                2 => b.alu_imm(AluOp::And, d, x, imm),
                3 => b.alu_un(AluOp::Not, d, x),
                4 => b.shift(ShiftOp::Shl, d, x, imm % 4),
                5 => b.mov(d, x),
                6 => b.ldi(d, imm),
                7 => b.load(d, x),
                8 => b.store(x, y),
                9 => {
                    // Any shape: destination, source count and immediate
                    // drawn independently, so shapes of one semantic
                    // collide in every way and some admit no template.
                    let sems = [
                        Semantic::Alu(AluOp::Add),
                        Semantic::Alu(AluOp::And),
                        Semantic::Alu(AluOp::Not),
                        Semantic::Shift(ShiftOp::Shr),
                        Semantic::Move,
                        Semantic::LoadImm,
                        Semantic::MemRead,
                    ];
                    b.push(MirOp {
                        dst: (imm & 1 == 1).then_some(d),
                        srcs: [x, y, d][..(imm as usize >> 1) % 4].to_vec(),
                        imm: (imm & 8 == 8).then_some(imm),
                        ..MirOp::new(sems[(imm as usize >> 4) % sems.len()])
                    })
                }
                10 => {
                    let next = b.new_block();
                    b.terminate(Term::Dispatch {
                        src: x,
                        mask: 1,
                        table: vec![next, next],
                    });
                    b.switch_to(next);
                }
                _ => {
                    let next = b.new_block();
                    let other = b.new_block();
                    b.branch(CondKind::Zero, next, other);
                    b.switch_to(other);
                    b.jump_and_switch(next);
                }
            }
        }
        b.mark_live_out(vs[12]);
        b.terminate(Term::Halt);
        b.finish()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn mask_candidates_equal_the_btreeset_oracle(
            ops in proptest::collection::vec((0u32..12, 0u32..15, 0u32..15, 0u32..15, 0u64..300), 1..30),
            machine in 0usize..4,
            budget in 0u16..6,
        ) {
            let m = [hm1, vm1, bx2, wm64][machine]();
            let budget = [None, Some(1), Some(4), Some(8), Some(16), Some(300)][budget as usize];
            let f = program(&m, &ops);
            let masks = all_candidates(&m, &f, budget);
            for (v, got) in masks.iter().enumerate() {
                let want = oracle::allowed_registers(&m, &f, VReg(v as u32), budget);
                prop_assert_eq!(got, &want);
            }
        }
    }
}
