//! **HM-1 "Horizon"** — the clean horizontal reference machine.
//!
//! Stands in for the Tucker–Flynn dynamic microprocessor (SIMPL's target)
//! and the HP300 (YALLL's friendlier target). Five independent units — ALU,
//! shifter, move bus, memory interface, sequencer — let up to five
//! micro-operations share one 96-bit control word. The microcycle has three
//! phases: operand read (0), compute (1), write-back (2). ALU results ride
//! the move bus during phase 2, so under the *fine* conflict model a bus
//! move (phases 0–2) and an ALU write-back (phase 2–3) do conflict while a
//! move finishing by phase 2 and the memory unit do not — grist for the
//! Tokoro-style compactor.
//!
//! Register structure (deliberately non-homogeneous, §2.1.3 of the paper):
//!
//! * `R0..R15` — general purpose, **macro-visible** (preserved across
//!   microtrap restarts; this is what makes the `incread` bug observable).
//! * `ACC` — accumulator; the only register besides `R` the ALU reads.
//! * `MAR`, `MBR` — memory address/buffer registers; main memory is reached
//!   *only* through them.
//! * `LS0..LS31` — local store, reachable only over the move bus; the
//!   register allocator spills here.

use crate::field::ControlWordFormat;
use crate::machine::MachineDesc;
use crate::regs::{RegClass, RegRef, RegisterFile};
use crate::resource::{Resource, ResourceKind, ResourceUse};
use crate::semantic::{AluOp, CondKind, Semantic, ShiftOp};
use crate::template::{FieldValueSrc as V, MicroOpTemplate};

/// Builds the HM-1 machine description.
pub fn hm1() -> MachineDesc {
    let mut m = MachineDesc::new("HM-1", 16, 3);
    m.interrupt_service_cycles = 40;
    m.trap_service_cycles = 300;

    // ---- storage ----------------------------------------------------------
    let r = m.add_file(RegisterFile::new("R", 16, 16, true));
    let s = m.add_file(RegisterFile::new("S", 3, 16, false)); // ACC, MAR, MBR
    let f = m.add_file(RegisterFile::new("F", 1, 8, false));
    let ls = m.add_file(RegisterFile::new("LS", 32, 16, false));
    m.scratch_file = Some(ls);

    let acc = RegRef::new(s, 0);
    let mar = RegRef::new(s, 1);
    let mbr = RegRef::new(s, 2);
    let flags = RegRef::new(f, 0);
    m.special.acc = Some(acc);
    m.special.mar = Some(mar);
    m.special.mbr = Some(mbr);
    m.special.flags = Some(flags);

    // ---- register classes --------------------------------------------------
    // ALU reads R or ACC on the left, R only on the right; writes R, ACC or
    // MAR (address arithmetic lands directly in MAR).
    let _gp = m.add_class(RegClass::whole_file("gp", r, 16));
    let alu_l = m.add_class(RegClass::from_ranges(
        "alu_left",
        vec![(r, 0, 16), (s, 0, 1)],
    ));
    let alu_r = m.add_class(RegClass::from_ranges(
        "alu_right",
        vec![(r, 0, 16), (s, 0, 1)],
    ));
    let alu_d = m.add_class(RegClass::from_ranges(
        "alu_dst",
        vec![(r, 0, 16), (s, 0, 2)],
    ));
    let sh_sd = m.add_class(RegClass::from_ranges(
        "shift_reg",
        vec![(r, 0, 16), (s, 0, 1)],
    ));
    let mv_s = m.add_class(RegClass::from_ranges(
        "mv_src",
        vec![(r, 0, 16), (s, 0, 3), (ls, 0, 32)],
    ));
    let mv_d = m.add_class(RegClass::from_ranges(
        "mv_dst",
        vec![(r, 0, 16), (s, 0, 3), (ls, 0, 32)],
    ));
    let dsp = m.add_class(RegClass::from_ranges(
        "dispatch_idx",
        vec![(r, 0, 16), (s, 0, 1)],
    ));

    // ---- resources -----------------------------------------------------------
    let alu = m.add_resource(Resource::new("alu", ResourceKind::Alu));
    let sh = m.add_resource(Resource::new("shifter", ResourceKind::Shifter));
    let mem = m.add_resource(Resource::new("mem", ResourceKind::Memory));
    let seq = m.add_resource(Resource::new("seq", ResourceKind::Sequencer));
    let bus = m.add_resource(Resource::new("move_bus", ResourceKind::Bus));

    // ---- control word ---------------------------------------------------------
    let mut cw = ControlWordFormat::new();
    let f_alu_op = cw.push("alu_op", 5);
    let f_alu_l = cw.push("alu_l", 5);
    let f_alu_r = cw.push("alu_r", 5);
    let f_alu_rsel = cw.push("alu_rsel", 1);
    let f_alu_d = cw.push("alu_d", 5);
    let f_alu_fe = cw.push("alu_fe", 1); // flag enable
    let f_sh_op = cw.push("sh_op", 3);
    let f_sh_s = cw.push("sh_s", 5);
    let f_sh_d = cw.push("sh_d", 5);
    let f_sh_n = cw.push("sh_n", 4);
    let f_sh_fe = cw.push("sh_fe", 1); // flag enable
    let f_mem_op = cw.push("mem_op", 2);
    let f_mv_op = cw.push("mv_op", 2);
    let f_mv_s = cw.push("mv_s", 6);
    let f_mv_d = cw.push("mv_d", 6);
    let f_imm = cw.push("imm", 16);
    let f_seq_op = cw.push("seq_op", 3);
    let f_seq_cond = cw.push("seq_cond", 4);
    let f_seq_addr = cw.push("seq_addr", 12);
    let f_dsp_s = cw.push("dsp_s", 5);
    m.control = cw;

    // ---- conditions -----------------------------------------------------------
    for c in [
        CondKind::True,
        CondKind::Zero,
        CondKind::NotZero,
        CondKind::Neg,
        CondKind::NotNeg,
        CondKind::Carry,
        CondKind::NotCarry,
        CondKind::Overflow,
        CondKind::Uf,
        CondKind::NotUf,
    ] {
        m.add_condition(c);
    }

    // ---- ALU templates ----------------------------------------------------------
    // Binary register-register forms.
    let bin = [
        ("add", AluOp::Add, 1u64),
        ("adc", AluOp::Adc, 2),
        ("sub", AluOp::Sub, 3),
        ("sbb", AluOp::Sbb, 4),
        ("and", AluOp::And, 5),
        ("or", AluOp::Or, 6),
        ("xor", AluOp::Xor, 7),
        ("nand", AluOp::Nand, 8),
        ("nor", AluOp::Nor, 9),
    ];
    for (name, op, code) in bin {
        let base = MicroOpTemplate::new(name, Semantic::Alu(op))
            .with_dst(alu_d)
            .with_src(alu_l)
            .with_src(alu_r)
            .set(f_alu_op, V::Const(code))
            .set(f_alu_rsel, V::Const(0))
            .set(f_alu_l, V::Src(0))
            .set(f_alu_r, V::Src(1))
            .set(f_alu_d, V::Dst)
            .occupies(ResourceUse::phases(alu, 0, 3))
            .occupies(ResourceUse::phases(bus, 2, 3));
        let mut t = base.clone().flags().set(f_alu_fe, V::Const(1));
        if matches!(op, AluOp::Adc | AluOp::Sbb) {
            t = t.reads(flags);
        }
        m.add_template(t);
        // The flag-free twin (the control word's flag-enable bit cleared):
        // used by selection only when the flags are provably dead.
        if !matches!(op, AluOp::Adc | AluOp::Sbb) {
            let mut nf = base;
            nf.name = format!("{name}.nf");
            m.add_template(nf.set(f_alu_fe, V::Const(0)));
        }
    }
    // Binary register-immediate forms (share the `imm` field).
    let bin_imm = [
        ("addi", AluOp::Add, 1u64),
        ("subi", AluOp::Sub, 3),
        ("andi", AluOp::And, 5),
        ("ori", AluOp::Or, 6),
        ("xori", AluOp::Xor, 7),
    ];
    for (name, op, code) in bin_imm {
        let base = MicroOpTemplate::new(name, Semantic::Alu(op))
            .with_dst(alu_d)
            .with_src(alu_l)
            .with_imm(16)
            .set(f_alu_op, V::Const(code))
            .set(f_alu_rsel, V::Const(1))
            .set(f_alu_l, V::Src(0))
            .set(f_alu_d, V::Dst)
            .set(f_imm, V::Imm)
            .occupies(ResourceUse::phases(alu, 0, 3))
            .occupies(ResourceUse::phases(bus, 2, 3));
        m.add_template(base.clone().flags().set(f_alu_fe, V::Const(1)));
        let mut nf = base;
        nf.name = format!("{name}.nf");
        m.add_template(nf.set(f_alu_fe, V::Const(0)));
    }
    // Unary forms.
    let un = [
        ("not", AluOp::Not, 10u64),
        ("neg", AluOp::Neg, 11),
        ("inc", AluOp::Inc, 12),
        ("dec", AluOp::Dec, 13),
        ("pass", AluOp::Pass, 14),
    ];
    for (name, op, code) in un {
        let base = MicroOpTemplate::new(name, Semantic::Alu(op))
            .with_dst(alu_d)
            .with_src(alu_l)
            .set(f_alu_op, V::Const(code))
            .set(f_alu_rsel, V::Const(0))
            .set(f_alu_l, V::Src(0))
            .set(f_alu_d, V::Dst)
            .occupies(ResourceUse::phases(alu, 0, 3))
            .occupies(ResourceUse::phases(bus, 2, 3));
        m.add_template(base.clone().flags().set(f_alu_fe, V::Const(1)));
        let mut nf = base;
        nf.name = format!("{name}.nf");
        m.add_template(nf.set(f_alu_fe, V::Const(0)));
    }

    // ---- shifter ----------------------------------------------------------------
    let shifts = [
        ("shl", ShiftOp::Shl, 1u64),
        ("shr", ShiftOp::Shr, 2),
        ("sar", ShiftOp::Sar, 3),
        ("rol", ShiftOp::Rol, 4),
        ("ror", ShiftOp::Ror, 5),
    ];
    for (name, op, code) in shifts {
        let base = MicroOpTemplate::new(name, Semantic::Shift(op))
            .with_dst(sh_sd)
            .with_src(sh_sd)
            .with_imm(4)
            .set(f_sh_op, V::Const(code))
            .set(f_sh_s, V::Src(0))
            .set(f_sh_d, V::Dst)
            .set(f_sh_n, V::Imm)
            .occupies(ResourceUse::phases(sh, 0, 3));
        m.add_template(base.clone().flags().set(f_sh_fe, V::Const(1)));
        let mut nf = base;
        nf.name = format!("{name}.nf");
        m.add_template(nf.set(f_sh_fe, V::Const(0)));
    }

    // ---- move bus -----------------------------------------------------------------
    m.add_template(
        MicroOpTemplate::new("mov", Semantic::Move)
            .with_dst(mv_d)
            .with_src(mv_s)
            .set(f_mv_op, V::Const(1))
            .set(f_mv_s, V::Src(0))
            .set(f_mv_d, V::Dst)
            .occupies(ResourceUse::phases(bus, 0, 2)),
    );
    m.add_template(
        MicroOpTemplate::new("ldi", Semantic::LoadImm)
            .with_dst(mv_d)
            .with_imm(16)
            .set(f_mv_op, V::Const(2))
            .set(f_mv_d, V::Dst)
            .set(f_imm, V::Imm)
            .occupies(ResourceUse::phases(bus, 0, 2)),
    );

    // ---- memory ---------------------------------------------------------------------
    m.add_template(
        MicroOpTemplate::new("read", Semantic::MemRead)
            .reads(mar)
            .writes(mbr)
            .set(f_mem_op, V::Const(1))
            .occupies(ResourceUse::phases(mem, 0, 3)),
    );
    m.add_template(
        MicroOpTemplate::new("write", Semantic::MemWrite)
            .reads(mar)
            .reads(mbr)
            .set(f_mem_op, V::Const(2))
            .occupies(ResourceUse::phases(mem, 0, 3)),
    );

    // ---- sequencer --------------------------------------------------------------------
    m.add_template(
        MicroOpTemplate::new("jmp", Semantic::Jump)
            .target()
            .set(f_seq_op, V::Const(1))
            .set(f_seq_addr, V::Target)
            .occupies(ResourceUse::phases(seq, 1, 3)),
    );
    m.add_template(
        MicroOpTemplate::new("br", Semantic::Branch)
            .cond()
            .target()
            .set(f_seq_op, V::Const(2))
            .set(f_seq_cond, V::Cond)
            .set(f_seq_addr, V::Target)
            .occupies(ResourceUse::phases(seq, 1, 3)),
    );
    m.add_template(
        MicroOpTemplate::new("dispatch", Semantic::Dispatch)
            .with_src(dsp)
            .with_imm(16)
            .target()
            .set(f_seq_op, V::Const(3))
            .set(f_dsp_s, V::Src(0))
            .set(f_imm, V::Imm)
            .set(f_seq_addr, V::Target)
            .occupies(ResourceUse::phases(seq, 1, 3)),
    );
    m.add_template(
        MicroOpTemplate::new("call", Semantic::Call)
            .target()
            .set(f_seq_op, V::Const(4))
            .set(f_seq_addr, V::Target)
            .occupies(ResourceUse::phases(seq, 1, 3)),
    );
    m.add_template(
        MicroOpTemplate::new("ret", Semantic::Return)
            .set(f_seq_op, V::Const(5))
            .occupies(ResourceUse::phases(seq, 1, 3)),
    );
    m.add_template(
        MicroOpTemplate::new("poll", Semantic::Poll)
            .set(f_seq_op, V::Const(6))
            .occupies(ResourceUse::phases(seq, 1, 3)),
    );
    m.add_template(
        MicroOpTemplate::new("halt", Semantic::Halt)
            .set(f_seq_op, V::Const(7))
            .occupies(ResourceUse::phases(seq, 1, 3)),
    );

    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ConflictModel;
    use crate::op::BoundOp;

    #[test]
    fn hm1_validates() {
        hm1().validate().unwrap();
    }

    #[test]
    fn four_way_parallelism_is_possible() {
        // add + mov + read + jmp can share one word under the fine model:
        // mov uses the bus in phases 0–2, the ALU write-back in 2–3.
        let m = hm1();
        let r = m.find_file("R").unwrap();
        let gp = |i| RegRef::new(r, i);
        let ops = vec![
            BoundOp::new(m.find_template("add").unwrap())
                .with_dst(gp(0))
                .with_src(gp(1))
                .with_src(gp(2)),
            BoundOp::new(m.find_template("mov").unwrap())
                .with_dst(gp(4))
                .with_src(gp(5)),
            BoundOp::new(m.find_template("read").unwrap()),
            BoundOp::new(m.find_template("jmp").unwrap()).with_target(0),
        ];
        let mi = crate::op::MicroInstr::of(ops.clone());
        m.validate_instr(&mi, ConflictModel::Fine).unwrap();
        // ...but add+mov conflict under the coarse model (both touch the
        // move bus at some point of the cycle).
        assert!(m.validate_instr(&mi, ConflictModel::Coarse).is_err());
        // Dropping the mov makes the coarse model happy too.
        let mi2 =
            crate::op::MicroInstr::of(vec![ops[0].clone(), ops[2].clone(), ops[3].clone()]);
        m.validate_instr(&mi2, ConflictModel::Coarse).unwrap();
    }

    #[test]
    fn shift_and_flag_conflict() {
        // Two flag-writing ops cannot pack: add + shr both write flags.
        // (shr uses the shifter, add the ALU — the conflict is the flags
        // register, exactly the "bizarre constraint" flavour of §2.1.3.)
        let m = hm1();
        let r = m.find_file("R").unwrap();
        let a = BoundOp::new(m.find_template("add").unwrap())
            .with_dst(RegRef::new(r, 0))
            .with_src(RegRef::new(r, 1))
            .with_src(RegRef::new(r, 2));
        let b = BoundOp::new(m.find_template("shr").unwrap())
            .with_dst(RegRef::new(r, 3))
            .with_src(RegRef::new(r, 3))
            .with_imm(1);
        assert!(m.conflicts(&a, &b, ConflictModel::Fine));
    }

    #[test]
    fn imm_field_is_shared_between_alu_and_ldi() {
        let m = hm1();
        let r = m.find_file("R").unwrap();
        let a = BoundOp::new(m.find_template("addi").unwrap())
            .with_dst(RegRef::new(r, 0))
            .with_src(RegRef::new(r, 1))
            .with_imm(5);
        let b = BoundOp::new(m.find_template("ldi").unwrap())
            .with_dst(RegRef::new(r, 2))
            .with_imm(9);
        let why = m.conflict_reason(&a, &b, ConflictModel::Fine).unwrap();
        assert!(why.contains("imm"), "{why}");
    }

    #[test]
    fn memory_goes_through_mar_and_mbr() {
        let m = hm1();
        let read = m.find_template("read").unwrap();
        let op = BoundOp::new(read);
        assert_eq!(
            m.reads(&op).collect::<Vec<_>>(),
            vec![m.special.mar.unwrap()]
        );
        assert_eq!(
            m.writes(&op).collect::<Vec<_>>(),
            vec![m.special.mbr.unwrap()]
        );
    }

    #[test]
    fn local_store_is_move_only() {
        let m = hm1();
        let ls = m.find_file("LS").unwrap();
        let alu_l = m.find_class("alu_left").unwrap();
        assert!(!m.class(alu_l).contains(RegRef::new(ls, 0)));
        let mv = m.find_class("mv_src").unwrap();
        assert!(m.class(mv).contains(RegRef::new(ls, 0)));
    }

    #[test]
    fn control_word_is_wide() {
        let m = hm1();
        assert_eq!(m.control_word_bits(), 96);
    }

    #[test]
    fn macro_visibility() {
        let m = hm1();
        assert!(m.file(m.find_file("R").unwrap()).macro_visible);
        assert!(!m.file(m.find_file("LS").unwrap()).macro_visible);
    }
}
