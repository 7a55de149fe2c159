//! The data-dependence DAG over selected operations.
//!
//! §2.1.4 of the survey: "When a statement S1 creates a value used by a
//! statement S2, or, alternatively, when S2 destroys a value needed by S1,
//! S1 must be executed before S2." We distinguish the three classic kinds:
//!
//! * **flow** (read-after-write) — the consumer must sit in a *strictly
//!   later* microinstruction (within one microinstruction all reads happen
//!   in the read phase, before any write),
//! * **output** (write-after-write) — strictly later as well,
//! * **anti** (write-after-read) — may share a microinstruction (the read
//!   still sees the old value) but may not move earlier.
//!
//! Memory operations are kept in program order, and `Call`/`Poll` act as
//! full barriers (a polled interrupt must observe a consistent state).

use mcc_machine::{RegRef, Semantic};

use crate::select::SelectedOp;

/// The kind of a dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DepKind {
    /// Read-after-write: strictly later microinstruction.
    Flow,
    /// Write-after-write: strictly later microinstruction.
    Output,
    /// Write-after-read: same microinstruction allowed, earlier forbidden.
    Anti,
}

impl DepKind {
    /// Minimum microinstruction distance the edge imposes.
    pub fn min_distance(self) -> usize {
        match self {
            DepKind::Flow | DepKind::Output => 1,
            DepKind::Anti => 0,
        }
    }
}

/// One dependence edge `from → to` (indices into the op slice).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Earlier op.
    pub from: usize,
    /// Later op.
    pub to: usize,
    /// Kind (determines whether they may share an instruction).
    pub kind: DepKind,
}

/// The dependence DAG of one basic block.
///
/// The graph is *sparse*: instead of one edge per dependent pair it keeps
/// only the edges a single forward walk finds — each read to the
/// register's last writer, each write to the last writer and to the
/// readers since it, each memory op to the previous one, and each op to
/// the barriers around it. Every dependent pair the walk skips is implied
/// by a path of at least its distance (writers of one register form an
/// output chain, memory ops a flow chain, barriers fence everything
/// between them), so levels, path lengths and [`schedule_respects`] are
/// those of the all-pairs graph while the edge count stays linear in the
/// block: at most `2·Σ|reads| + Σ|writes| + 3n`.
///
/// Adjacency is kept in CSR form (flat edge arrays with per-op start
/// offsets), and [`rebuild`](Self::rebuild) reuses every buffer, so one
/// graph serves all the blocks of a function without allocating.
///
/// [`schedule_respects`]: Self::schedule_respects
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    n: usize,
    /// `preds[pred_start[j]..pred_start[j + 1]]` are op `j`'s
    /// predecessors, ascending.
    pred_start: Vec<usize>,
    preds: Vec<(usize, DepKind)>,
    /// Likewise for successors, ascending.
    succ_start: Vec<usize>,
    succs: Vec<(usize, DepKind)>,
    walk: Walk,
}

const NONE: usize = usize::MAX;

/// Per-register state of the forward walk.
#[derive(Debug, Clone, Copy, Default)]
struct RegSlot {
    /// The walk that last touched this slot; older stamps read as empty.
    epoch: u32,
    /// Last op writing the register, or `NONE`.
    writer: usize,
    /// Head of the list (in `Walk::readers`) of ops reading the register
    /// since `writer`, or `NONE`.
    readers: usize,
}

/// Scratch state of [`DepGraph::rebuild`], kept between calls.
#[derive(Debug, Clone, Default)]
struct Walk {
    epoch: u32,
    /// Indexed by register file, then register index.
    regs: Vec<Vec<RegSlot>>,
    /// Linked reader lists: `(op, next)`.
    readers: Vec<(usize, usize)>,
    /// `mark[i]` is the position in `preds` of the edge `i → j` while op
    /// `j` collects its predecessors (stale values fail the range check).
    mark: Vec<usize>,
}

impl Walk {
    fn slot(&mut self, r: RegRef) -> &mut RegSlot {
        let (f, i) = (r.file.index(), r.index as usize);
        if self.regs.len() <= f {
            self.regs.resize_with(f + 1, Vec::new);
        }
        if self.regs[f].len() <= i {
            self.regs[f].resize(i + 1, RegSlot::default());
        }
        let slot = &mut self.regs[f][i];
        if slot.epoch != self.epoch {
            *slot = RegSlot {
                epoch: self.epoch,
                writer: NONE,
                readers: NONE,
            };
        }
        slot
    }
}

fn is_barrier(sem: Semantic) -> bool {
    matches!(sem, Semantic::Call | Semantic::Poll) || sem.is_control()
}

/// Strength of a kind when two reasons link the same pair: the longer
/// distance wins, and flow outranks output at equal distance.
fn rank(kind: DepKind) -> u8 {
    match kind {
        DepKind::Anti => 0,
        DepKind::Output => 1,
        DepKind::Flow => 2,
    }
}

/// Records the edge `i → j` for the op whose predecessors start at
/// `start` in `preds`, merging it with an edge already recorded for `i`.
fn add_edge(
    preds: &mut Vec<(usize, DepKind)>,
    mark: &mut [usize],
    start: usize,
    i: usize,
    kind: DepKind,
) {
    let at = mark[i];
    if at >= start && at < preds.len() && preds[at].0 == i {
        if rank(kind) > rank(preds[at].1) {
            preds[at].1 = kind;
        }
    } else {
        mark[i] = preds.len();
        preds.push((i, kind));
    }
}

impl DepGraph {
    /// Builds the DAG for a straight-line op sequence.
    pub fn build(ops: &[SelectedOp]) -> Self {
        let mut g = DepGraph::default();
        g.rebuild(ops);
        g
    }

    /// Rebuilds the DAG in place for another op sequence, reusing every
    /// buffer.
    pub fn rebuild(&mut self, ops: &[SelectedOp]) {
        let n = ops.len();
        self.n = n;
        self.preds.clear();
        self.pred_start.clear();
        let w = &mut self.walk;
        w.epoch = w.epoch.wrapping_add(1);
        if w.epoch == 0 {
            // Stamps wrapped: forget every slot once.
            w.regs.iter_mut().for_each(|f| f.fill(RegSlot::default()));
            w.epoch = 1;
        }
        w.readers.clear();
        w.mark.clear();
        w.mark.resize(n, NONE);
        let mut last_mem = NONE;
        let mut last_barrier = NONE;
        for (j, op) in ops.iter().enumerate() {
            let start = self.preds.len();
            self.pred_start.push(start);
            let preds = &mut self.preds;
            if is_barrier(op.sem) {
                // Everything since the previous barrier (inclusive) must
                // finish first; earlier ops are fenced by that barrier.
                let from = if last_barrier == NONE {
                    0
                } else {
                    last_barrier
                };
                for i in from..j {
                    add_edge(preds, &mut w.mark, start, i, DepKind::Flow);
                }
                last_barrier = j;
            } else if last_barrier != NONE {
                add_edge(preds, &mut w.mark, start, last_barrier, DepKind::Flow);
            }
            if op.sem.may_trap() {
                if last_mem != NONE {
                    add_edge(preds, &mut w.mark, start, last_mem, DepKind::Flow);
                }
                last_mem = j;
            }
            for &r in &op.reads {
                let writer = w.slot(r).writer;
                if writer != NONE {
                    add_edge(preds, &mut w.mark, start, writer, DepKind::Flow);
                }
            }
            for &r in &op.writes {
                let slot = w.slot(r);
                let (writer, mut reader) = (slot.writer, slot.readers);
                if writer == j {
                    continue; // listed twice
                }
                slot.writer = j;
                slot.readers = NONE;
                if writer != NONE {
                    add_edge(preds, &mut w.mark, start, writer, DepKind::Output);
                }
                while reader != NONE {
                    let (i, next) = w.readers[reader];
                    add_edge(preds, &mut w.mark, start, i, DepKind::Anti);
                    reader = next;
                }
            }
            for &r in &op.reads {
                // A writer of `r` reaches later writers by an output edge,
                // which implies the anti edge.
                let node = w.readers.len();
                let slot = w.slot(r);
                if slot.writer != j {
                    let head = std::mem::replace(&mut slot.readers, node);
                    w.readers.push((j, head));
                }
            }
            self.preds[start..].sort_unstable_by_key(|&(i, _)| i);
        }
        self.pred_start.push(self.preds.len());

        // Successor lists by counting sort; visiting targets in ascending
        // order keeps each list ascending.
        self.succ_start.clear();
        self.succ_start.resize(n + 1, 0);
        for &(i, _) in &self.preds {
            self.succ_start[i + 1] += 1;
        }
        for i in 0..n {
            self.succ_start[i + 1] += self.succ_start[i];
        }
        self.succs.clear();
        self.succs.resize(self.preds.len(), (0, DepKind::Anti));
        let fill = &mut w.mark; // reused as per-op insertion cursors
        fill.clear();
        fill.extend_from_slice(&self.succ_start[..n]);
        for j in 0..n {
            for &(i, kind) in &self.preds[self.pred_start[j]..self.pred_start[j + 1]] {
                self.succs[fill[i]] = (j, kind);
                fill[i] += 1;
            }
        }
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.preds.len()
    }

    /// All edges, by target then source.
    pub fn edges(&self) -> impl Iterator<Item = DepEdge> + '_ {
        (0..self.n).flat_map(move |to| {
            self.preds(to)
                .iter()
                .map(move |&(from, kind)| DepEdge { from, to, kind })
        })
    }

    /// Successors of `i` with edge kinds, ascending.
    pub fn succs(&self, i: usize) -> &[(usize, DepKind)] {
        &self.succs[self.succ_start[i]..self.succ_start[i + 1]]
    }

    /// Predecessors of `i` with edge kinds, ascending.
    pub fn preds(&self, i: usize) -> &[(usize, DepKind)] {
        &self.preds[self.pred_start[i]..self.pred_start[i + 1]]
    }

    /// Earliest possible microinstruction index for each op when resources
    /// are unlimited — the ASAP levels. Ops with equal level *could* run in
    /// parallel: this is exactly the "maximal parallelism" identified by
    /// Dasgupta & Tartar's algorithm.
    pub fn asap_levels(&self) -> Vec<usize> {
        let mut level = vec![0usize; self.n];
        // Ops are in program order, so predecessors precede successors.
        for j in 0..self.n {
            for &(i, kind) in self.preds(j) {
                level[j] = level[j].max(level[i] + kind.min_distance());
            }
        }
        level
    }

    /// Length of the longest dependence path from each op to any sink,
    /// counted in mandatory microinstruction steps. Used as the priority
    /// function of critical-path list scheduling.
    pub fn critical_path(&self) -> Vec<usize> {
        let mut h = Vec::new();
        self.critical_path_into(&mut h);
        h
    }

    /// [`critical_path`](Self::critical_path) into a reused buffer.
    pub fn critical_path_into(&self, h: &mut Vec<usize>) {
        h.clear();
        h.resize(self.n, 0);
        for i in (0..self.n).rev() {
            for &(j, kind) in self.succs(i) {
                h[i] = h[i].max(h[j] + kind.min_distance());
            }
        }
    }

    /// The minimum number of microinstructions any schedule needs (the
    /// dependence-height bound; resources can only increase it).
    pub fn height_bound(&self) -> usize {
        if self.n == 0 {
            return 0;
        }
        self.asap_levels()
            .iter()
            .max()
            .map(|&m| m + 1)
            .unwrap_or(0)
    }

    /// Checks that an assignment of ops to microinstruction indices
    /// respects every edge. Used by tests and as a debug assertion by the
    /// compaction algorithms.
    pub fn schedule_respects(&self, mi_of: &[usize]) -> bool {
        self.edges()
            .all(|e| mi_of[e.to] >= mi_of[e.from] + e.kind.min_distance())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::MirOp;
    use crate::operand::Operand;
    use crate::select::select_op;
    use mcc_machine::machines::hm1;
    use mcc_machine::{AluOp, RegRef};

    fn ops(mir: &[MirOp]) -> Vec<SelectedOp> {
        let m = hm1();
        mir.iter().map(|o| select_op(&m, o).unwrap()).collect()
    }

    fn r(i: u16) -> Operand {
        let m = hm1();
        Operand::Reg(RegRef::new(m.find_file("R").unwrap(), i))
    }

    #[test]
    fn flow_edge_detected() {
        // r0 = r1+r2 ; r3 = r0|r4  → flow 0→1 (plus a flags output dep).
        let s = ops(&[
            MirOp::alu(AluOp::Add, r(0), r(1), r(2)),
            MirOp::alu(AluOp::Or, r(3), r(0), r(4)),
        ]);
        let g = DepGraph::build(&s);
        assert!(g
            .edges()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Flow));
        assert_eq!(g.asap_levels(), vec![0, 1]);
        assert_eq!(g.height_bound(), 2);
    }

    #[test]
    fn independent_movs_have_no_edges() {
        let s = ops(&[MirOp::mov(r(0), r(1)), MirOp::mov(r(2), r(3))]);
        let g = DepGraph::build(&s);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(g.asap_levels(), vec![0, 0], "could run in parallel");
    }

    #[test]
    fn flag_writers_get_output_edges() {
        // Two adds to disjoint registers still carry an output dep via the
        // flags register.
        let s = ops(&[
            MirOp::alu(AluOp::Add, r(0), r(1), r(2)),
            MirOp::alu(AluOp::Add, r(3), r(4), r(5)),
        ]);
        let g = DepGraph::build(&s);
        assert!(
            g.edges().any(|e| e.kind == DepKind::Output),
            "{:?}",
            g.edges().collect::<Vec<_>>()
        );
    }

    #[test]
    fn anti_edge_allows_same_instruction() {
        // mov r0 <- r1 ; mov r1 <- r2: WAR on r1.
        let s = ops(&[MirOp::mov(r(0), r(1)), MirOp::mov(r(1), r(2))]);
        let g = DepGraph::build(&s);
        let e = g.edges().next().unwrap();
        assert_eq!(e.kind, DepKind::Anti);
        assert_eq!(g.asap_levels(), vec![0, 0]);
        assert!(g.schedule_respects(&[0, 0]));
        assert!(!g.schedule_respects(&[1, 0]), "moving the writer earlier breaks WAR");
    }

    #[test]
    fn memory_ops_stay_ordered() {
        let s = ops(&[
            MirOp::new(mcc_machine::Semantic::MemRead),
            MirOp::new(mcc_machine::Semantic::MemWrite),
        ]);
        let g = DepGraph::build(&s);
        assert!(g
            .edges()
            .any(|e| e.from == 0 && e.to == 1 && e.kind == DepKind::Flow));
    }

    #[test]
    fn poll_is_a_barrier() {
        let s = ops(&[
            MirOp::mov(r(0), r(1)),
            MirOp::poll(),
            MirOp::mov(r(2), r(3)),
        ]);
        let g = DepGraph::build(&s);
        assert!(g.schedule_respects(&[0, 1, 2]));
        assert!(!g.schedule_respects(&[0, 1, 1]));
        assert!(!g.schedule_respects(&[1, 1, 2]));
    }

    #[test]
    fn critical_path_orders_priorities() {
        // Chain of three dependent adds vs one independent mov: the head of
        // the chain has the longest path.
        let s = ops(&[
            MirOp::alu(AluOp::Add, r(0), r(1), r(2)),
            MirOp::alu(AluOp::Add, r(3), r(0), r(2)),
            MirOp::alu(AluOp::Add, r(4), r(3), r(2)),
            MirOp::mov(r(5), r(6)),
        ]);
        let g = DepGraph::build(&s);
        let cp = g.critical_path();
        assert_eq!(cp[0], 2);
        assert_eq!(cp[3], 0);
        assert!(cp[0] > cp[1] && cp[1] > cp[2]);
    }

    /// The all-pairs builder this graph replaced: one edge per dependent
    /// pair, with the classic kind priority flow > output > anti.
    mod oracle {
        use super::super::is_barrier;
        use crate::dep::{DepEdge, DepKind};
        use crate::select::SelectedOp;
        use mcc_machine::RegRef;

        fn intersects(a: &[RegRef], b: &[RegRef]) -> bool {
            a.iter().any(|x| b.contains(x))
        }

        pub struct AllPairs {
            pub n: usize,
            pub edges: Vec<DepEdge>,
        }

        impl AllPairs {
            pub fn build(ops: &[SelectedOp]) -> Self {
                let n = ops.len();
                let mut edges = Vec::new();
                for i in 0..n {
                    for j in i + 1..n {
                        let a = &ops[i];
                        let b = &ops[j];
                        let barrier = is_barrier(a.sem) || is_barrier(b.sem);
                        let both_mem = a.sem.may_trap() && b.sem.may_trap();
                        let kind = if barrier || both_mem || intersects(&a.writes, &b.reads) {
                            Some(DepKind::Flow)
                        } else if intersects(&a.writes, &b.writes) {
                            Some(DepKind::Output)
                        } else if intersects(&a.reads, &b.writes) {
                            Some(DepKind::Anti)
                        } else {
                            None
                        };
                        if let Some(kind) = kind {
                            edges.push(DepEdge {
                                from: i,
                                to: j,
                                kind,
                            });
                        }
                    }
                }
                AllPairs { n, edges }
            }

            pub fn asap_levels(&self) -> Vec<usize> {
                let mut level = vec![0usize; self.n];
                for e in &self.edges {
                    level[e.to] = level[e.to].max(level[e.from] + e.kind.min_distance());
                }
                level
            }

            pub fn critical_path(&self) -> Vec<usize> {
                let mut h = vec![0usize; self.n];
                for e in self.edges.iter().rev() {
                    h[e.from] = h[e.from].max(h[e.to] + e.kind.min_distance());
                }
                h
            }

            pub fn height_bound(&self) -> usize {
                self.asap_levels().iter().max().map_or(0, |&m| m + 1)
            }

            pub fn schedule_respects(&self, mi_of: &[usize]) -> bool {
                self.edges
                    .iter()
                    .all(|e| mi_of[e.to] >= mi_of[e.from] + e.kind.min_distance())
            }
        }
    }

    /// Semantics the random blocks draw from: plain ops, both memory ops
    /// and every barrier kind.
    const SEMS: [Semantic; 9] = [
        Semantic::Alu(AluOp::Add),
        Semantic::Move,
        Semantic::LoadImm,
        Semantic::MemRead,
        Semantic::MemWrite,
        Semantic::Poll,
        Semantic::Call,
        Semantic::Branch,
        Semantic::Nop,
    ];

    /// A block of ops with random semantics and random read/write sets
    /// over six registers (bit `k` of a mask selects register `k`).
    fn random_block(spec: &[(usize, u8, u8)]) -> Vec<SelectedOp> {
        let regs = |mask: u8| -> Vec<RegRef> {
            (0..6u16)
                .filter(|k| mask & (1 << k) != 0)
                .map(|k| RegRef::new(mcc_machine::FileId(k % 2), k))
                .collect()
        };
        spec.iter()
            .map(|&(sem, reads, writes)| SelectedOp {
                // Barriers and memory ops are rarer than plain ops.
                sem: SEMS[if sem < 24 { sem % 3 } else { sem % SEMS.len() }],
                candidates: Vec::new(),
                reads: regs(reads),
                writes: regs(writes),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(400))]

        #[test]
        fn sparse_graph_matches_the_all_pairs_graph(
            spec in proptest::collection::vec((0usize..32, 0u8..64, 0u8..64), 0..40),
            shifts in proptest::collection::vec((0usize..40, 0usize..3), 8..9),
            noise in proptest::collection::vec(0usize..40, 40..41),
        ) {
            let ops = random_block(&spec);
            let old = oracle::AllPairs::build(&ops);
            let mut g = DepGraph::build(&[]);
            g.rebuild(&ops); // reuse across blocks must not leak state
            proptest::prop_assert_eq!(g.asap_levels(), old.asap_levels());
            proptest::prop_assert_eq!(g.critical_path(), old.critical_path());
            proptest::prop_assert_eq!(g.height_bound(), old.height_bound());
            let reads: usize = ops.iter().map(|o| o.reads.len()).sum();
            let writes: usize = ops.iter().map(|o| o.writes.len()).sum();
            proptest::prop_assert!(g.edge_count() <= 2 * reads + writes + 3 * ops.len());
            // Every sparse edge is one of the all-pairs edges.
            for e in g.edges() {
                proptest::prop_assert!(old.edges.iter().any(|o| o.from == e.from
                    && o.to == e.to
                    && o.kind.min_distance() >= e.kind.min_distance()));
            }
            // Assignments near the ASAP schedule, one op pulled earlier or
            // pushed later at a time, and arbitrary ones.
            let n = ops.len();
            if n > 0 {
                let asap = g.asap_levels();
                proptest::prop_assert!(g.schedule_respects(&asap));
                for &(k, d) in &shifts {
                    let mut mi = asap.clone();
                    let k = k % n;
                    mi[k] = (mi[k] + d).saturating_sub(1);
                    proptest::prop_assert_eq!(g.schedule_respects(&mi), old.schedule_respects(&mi));
                }
                let mi: Vec<usize> = noise[..n].iter().map(|&x| x % 6).collect();
                proptest::prop_assert_eq!(g.schedule_respects(&mi), old.schedule_respects(&mi));
            }
        }
    }
}
