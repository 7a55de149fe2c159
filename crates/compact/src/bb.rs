//! Exact branch-and-bound microinstruction composition.
//!
//! Enumerates placements of ops (in topological = program order, which is
//! a topological order of the dependence DAG) into microinstructions,
//! pruning with the dependence height bound and the best solution so far.
//! Exponential in the worst case — used only for blocks up to
//! [`BB_MAX_OPS`](crate::BB_MAX_OPS) ops, and as the "minimal sequence"
//! yardstick of experiment E2.

use mcc_machine::{ConflictModel, MachineDesc, MicroInstr};
use mcc_mir::dep::DepGraph;
use mcc_mir::select::SelectedOp;

use crate::{fits, Compaction, Scratch};

struct Search<'a> {
    m: &'a MachineDesc,
    ops: &'a [SelectedOp],
    g: &'a DepGraph,
    model: ConflictModel,
    /// Remaining dependence height below each op (critical path).
    below: Vec<usize>,
    best_len: usize,
    best: Option<(Vec<MicroInstr>, Vec<usize>)>,
    /// Node budget so pathological blocks cannot hang the compiler.
    budget: u64,
}

impl<'a> Search<'a> {
    fn run(&mut self, j: usize, instrs: &mut Vec<MicroInstr>, placed: &mut Vec<usize>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        if j == self.ops.len() {
            if instrs.len() < self.best_len {
                self.best_len = instrs.len();
                self.best = Some((instrs.clone(), placed.clone()));
            }
            return;
        }
        // Earliest slot from scheduled predecessors; prune when even the
        // earliest placement cannot beat the incumbent.
        let mut e = 0usize;
        for &(i, kind) in self.g.preds(j) {
            e = e.max(placed[i] + kind.min_distance());
        }
        if e + self.below[j] + 1 >= self.best_len {
            return;
        }
        // Ops are tried in *program* order, which need not be schedule
        // order: op j may belong in a slot later than the current frontier
        // (leaving a gap a later op fills). The horizon is therefore
        // bounded only by what can still improve on the incumbent — never
        // by the current schedule length.
        let horizon = self.best_len - self.below[j] - 1;
        let orig_len = instrs.len();
        for t in e..horizon {
            if t >= instrs.len() {
                instrs.resize_with(t + 1, MicroInstr::new);
            }
            for cand in &self.ops[j].candidates {
                if fits(self.m, &instrs[t], cand, self.model) {
                    instrs[t].ops.push(cand.clone());
                    placed.push(t);
                    self.run(j + 1, instrs, placed);
                    placed.pop();
                    instrs[t].ops.pop();
                    // Trying further candidates in the same slot only
                    // matters when candidates differ in conflicts; keep
                    // exploring all of them.
                }
            }
            // Drop any trailing empty slots this iteration created.
            while instrs.len() > orig_len && instrs.last().is_some_and(|mi| mi.is_empty()) {
                instrs.pop();
            }
        }
    }
}

/// How a bounded search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BbStatus {
    /// The node budget ran out before the search space was exhausted; the
    /// returned schedule is the best found, not a proven optimum.
    pub exhausted: bool,
}

/// Finds a minimum-length schedule within an explicit node budget,
/// reporting whether the budget ran out.
pub(crate) fn branch_and_bound_budgeted(
    s: &mut Scratch,
    m: &MachineDesc,
    ops: &[SelectedOp],
    g: &DepGraph,
    model: ConflictModel,
    budget: u64,
) -> (Compaction, BbStatus) {
    // Start from the critical-path heuristic as the incumbent.
    let seed = crate::list_schedule(s, m, ops, g, model);
    let mut search = Search {
        m,
        ops,
        g,
        model,
        below: g.critical_path(),
        best_len: seed.len(),
        best: None,
        budget,
    };
    let mut instrs = Vec::new();
    let mut placed = Vec::new();
    search.run(0, &mut instrs, &mut placed);
    let status = BbStatus {
        exhausted: search.budget == 0,
    };
    let c = match search.best {
        Some((instrs, mi_of)) => {
            // The search may leave interior empty slots (gaps a later op
            // was expected to fill); `finish` compresses them, which is
            // always legal because no dependence needs a distance > 1.
            crate::finish(&mut s.order, m, instrs, &mi_of, g, model)
        }
        None => seed, // heuristic was already optimal (or budget ran out)
    };
    (c, status)
}

#[cfg(test)]
mod tests {
    use crate::{compact, Algorithm};
    use mcc_machine::machines::hm1;
    use mcc_machine::{ConflictModel, RegRef};
    use mcc_mir::op::MirOp;
    use mcc_mir::operand::Operand;
    use mcc_mir::select::select_op;
    use mcc_machine::AluOp;

    #[test]
    fn bb_matches_height_on_simple_dag() {
        let m = hm1();
        let r = |i| Operand::Reg(RegRef::new(m.find_file("R").unwrap(), i));
        // Diamond: a; b dep a; c dep a; d dep b,c — height 3, and b,c
        // share the ALU, so optimum is 4 on one ALU... but c can be a mov.
        let mir = [
            MirOp::alu(AluOp::Add, r(0), r(1), r(2)),
            MirOp::alu(AluOp::Or, r(3), r(0), r(2)),
            MirOp::mov(r(4), r(0)),
            MirOp::alu(AluOp::And, r(5), r(3), r(4)),
        ];
        let ops: Vec<_> = mir.iter().map(|o| select_op(&m, o).unwrap()).collect();
        let c = compact(&m, &ops, Algorithm::BranchBound, ConflictModel::Fine);
        assert_eq!(c.len(), 3, "add | or+mov | and");
    }

    #[test]
    fn bb_equals_heuristic_when_no_slack() {
        let m = hm1();
        let r = |i| Operand::Reg(RegRef::new(m.find_file("R").unwrap(), i));
        let mir = [
            MirOp::mov(r(0), r(1)),
            MirOp::mov(r(2), r(0)),
            MirOp::mov(r(3), r(2)),
        ];
        let ops: Vec<_> = mir.iter().map(|o| select_op(&m, o).unwrap()).collect();
        let bb = compact(&m, &ops, Algorithm::BranchBound, ConflictModel::Coarse);
        let cp = compact(&m, &ops, Algorithm::CriticalPath, ConflictModel::Coarse);
        assert_eq!(bb.len(), cp.len());
        assert_eq!(bb.len(), 3);
    }
}
