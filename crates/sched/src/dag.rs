//! Dependence analysis over physical LIR: block splitting, the
//! pairwise minimum-gap relation the per-block DAGs are built from, and
//! a backward liveness dataflow used to prove speculative delay-slot
//! fills dead on the path that does not want them.

use patmos_isa::{Pred, Reg, ARG_REGS};
use patmos_lir::plir::{Item, LirInst, LirOp, Module};

/// The minimum bundle gap from `a` (earlier in program order) to `b`
/// (later), or `None` when they are independent and may be reordered
/// freely.
///
/// A gap of `0` means `b` may share `a`'s bundle (both slots read
/// pre-state) but must not move *before* it; any caller that reorders
/// `b` in front of `a` must therefore require `None`, not `Some(0)`.
pub fn dependence_gap(a: &LirInst, b: &LirInst) -> Option<u32> {
    let mut gap: Option<u32> = None;
    let mut need = |g: u32| gap = Some(gap.map_or(g, |old: u32| old.max(g)));

    // Memory/stack-control order is preserved.
    if a.op.is_ordered() && b.op.is_ordered() {
        need(1);
    }
    // Calls are barriers: nothing moves across them.
    if matches!(a.op, LirOp::CallFunc(_)) || matches!(b.op, LirOp::CallFunc(_)) {
        need(1);
    }

    // Register RAW/WAW/WAR.
    if let Some(d) = a.op.def() {
        if b.op.uses().into_iter().flatten().any(|u| u == d) {
            need(a.op.def_gap());
        }
        if b.op.def() == Some(d) {
            need(1);
        }
    }
    if let Some(d) = b.op.def() {
        if a.op.uses().into_iter().flatten().any(|u| u == d) {
            need(0); // same bundle is fine: reads see pre-state
        }
    }

    // Predicate RAW/WAW/WAR, including guards.
    let b_pred_reads = || {
        b.op.pred_uses()
            .into_iter()
            .flatten()
            .chain((!b.guard.is_always()).then_some(b.guard.pred))
    };
    if let Some(d) = a.op.pred_def() {
        if b_pred_reads().any(|p| p == d) {
            need(1);
        }
        if b.op.pred_def() == Some(d) {
            need(1);
        }
    }
    if let Some(d) = b.op.pred_def() {
        let a_reads =
            a.op.pred_uses()
                .into_iter()
                .flatten()
                .chain((!a.guard.is_always()).then_some(a.guard.pred));
        for p in a_reads {
            if p == d {
                need(0);
            }
        }
    }

    // Multiplier unit.
    if a.op.writes_mul() && b.op.reads_mul() {
        need(1 + patmos_isa::timing::MUL_GAP);
    }
    if a.op.writes_mul() && b.op.writes_mul() {
        need(1);
    }
    if a.op.reads_mul() && b.op.writes_mul() {
        need(0);
    }

    gap
}

/// The visible-delay residue an instruction owes *past* its issue
/// bundle: the number of bundles that must separate it from the first
/// bundle of whatever executes next (possibly in another block) before
/// every result it produces is architecturally visible.
pub fn out_gap(inst: &LirInst) -> u32 {
    if inst.op.writes_mul() {
        1 + patmos_isa::timing::MUL_GAP
    } else if inst.op.def().is_some() {
        inst.op.def_gap()
    } else {
        0
    }
}

/// One basic block of physical LIR.
#[derive(Debug, Clone)]
pub struct Block {
    /// Marker items re-emitted verbatim before the block's bundles
    /// (`.func`, `.loopbound`, labels), in original order.
    pub head: Vec<Item>,
    /// Labels naming this block (usually zero or one).
    pub labels: Vec<String>,
    /// Whether a `.loopbound` annotation is attached to this block.
    pub has_loop_bound: bool,
    /// Straight-line body, terminator excluded.
    pub insts: Vec<LirInst>,
    /// The control transfer ending the block, if any.
    pub term: Option<LirInst>,
}

impl Block {
    fn new() -> Block {
        Block {
            head: Vec::new(),
            labels: Vec::new(),
            has_loop_bound: false,
            insts: Vec::new(),
            term: None,
        }
    }

    fn is_trivial(&self) -> bool {
        self.head.is_empty() && self.insts.is_empty() && self.term.is_none()
    }

    /// Whether control can fall off the end of this block into the
    /// next one in layout order.
    pub fn falls_through(&self) -> bool {
        match &self.term {
            None => true,
            Some(t) => match &t.op {
                // A guarded transfer falls through when the guard is
                // false; calls resume after their delay slots.
                LirOp::BrLabel(_) => !t.guard.is_always(),
                LirOp::CallFunc(_) => true,
                LirOp::Real(op) => match op.flow_kind() {
                    patmos_isa::FlowKind::CallDirect(_) | patmos_isa::FlowKind::CallIndirect(_) => {
                        true
                    }
                    _ => !t.guard.is_always(),
                },
                LirOp::LilSym(..) => true,
            },
        }
    }
}

/// One function's blocks, in layout order.
#[derive(Debug, Clone)]
pub struct Func {
    /// Function name (from the `.func` marker).
    pub name: String,
    /// Blocks in layout order; block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Func {
    /// The index of the block carrying `label`, if any.
    pub fn block_of_label(&self, label: &str) -> Option<usize> {
        self.blocks
            .iter()
            .position(|b| b.labels.iter().any(|l| l == label))
    }

    /// How many branches of this function target `label`.
    pub fn label_refs(&self, label: &str) -> usize {
        self.blocks
            .iter()
            .filter(
                |b| matches!(&b.term, Some(t) if matches!(&t.op, LirOp::BrLabel(l) if l == label)),
            )
            .count()
    }
}

/// A module split into functions and basic blocks (plus any items that
/// precede the first `.func`, emitted verbatim).
#[derive(Debug, Clone)]
pub struct SplitModule {
    /// Items before the first function marker.
    pub prelude: Vec<Item>,
    /// Functions in layout order.
    pub funcs: Vec<Func>,
}

/// Splits a module's linear items into per-function basic blocks.
/// Blocks begin at `.func`/label markers (a `.loopbound` binds to the
/// label that follows it) and end at control transfers.
pub fn split_blocks(module: &Module) -> SplitModule {
    let mut prelude = Vec::new();
    let mut funcs: Vec<Func> = Vec::new();
    let mut block = Block::new();

    let flush_block = |block: &mut Block, funcs: &mut Vec<Func>| {
        if block.is_trivial() {
            return;
        }
        let done = std::mem::replace(block, Block::new());
        if let Some(f) = funcs.last_mut() {
            f.blocks.push(done);
        }
    };

    for item in &module.items {
        match item {
            Item::FuncStart(name) => {
                flush_block(&mut block, &mut funcs);
                funcs.push(Func {
                    name: name.clone(),
                    blocks: Vec::new(),
                });
                block.head.push(item.clone());
            }
            Item::Label(name) => {
                // A label opens a new block unless the current one is
                // still empty (e.g. `.func` directly followed by a
                // label, or two labels in a row).
                if !block.insts.is_empty() || block.term.is_some() {
                    flush_block(&mut block, &mut funcs);
                }
                block.head.push(item.clone());
                block.labels.push(name.clone());
            }
            Item::LoopBound { .. } => {
                if !block.insts.is_empty() || block.term.is_some() {
                    flush_block(&mut block, &mut funcs);
                }
                block.head.push(item.clone());
                block.has_loop_bound = true;
            }
            Item::Inst(inst) => {
                if funcs.is_empty() {
                    prelude.push(item.clone());
                    continue;
                }
                if inst.op.is_flow() {
                    block.term = Some(inst.clone());
                    flush_block(&mut block, &mut funcs);
                } else {
                    block.insts.push(inst.clone());
                }
            }
        }
    }
    flush_block(&mut block, &mut funcs);
    if funcs.is_empty() && !block.is_trivial() {
        prelude.append(&mut block.head);
        prelude.extend(block.insts.drain(..).map(Item::Inst));
        if let Some(t) = block.term.take() {
            prelude.push(Item::Inst(t));
        }
    }

    SplitModule { prelude, funcs }
}

/// Register + predicate bitsets for the liveness dataflow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LiveSet {
    /// One bit per general-purpose register.
    pub regs: u32,
    /// One bit per predicate register.
    pub preds: u16,
}

impl LiveSet {
    fn add_reg(&mut self, r: Reg) {
        self.regs |= 1 << r.index();
    }

    fn add_pred(&mut self, p: Pred) {
        self.preds |= 1 << p.index();
    }

    /// Whether `r` is in the set.
    pub fn has_reg(&self, r: Reg) -> bool {
        self.regs & (1 << r.index()) != 0
    }

    /// Whether `p` is in the set.
    pub fn has_pred(&self, p: Pred) -> bool {
        self.preds & (1 << p.index()) != 0
    }

    fn union(&mut self, other: LiveSet) -> bool {
        let before = *self;
        self.regs |= other.regs;
        self.preds |= other.preds;
        *self != before
    }
}

/// What one instruction reads, beyond what [`LirOp::uses`] reports: a
/// call reads its (up to four) argument registers and, conservatively,
/// every predicate.
fn inst_reads(inst: &LirInst) -> LiveSet {
    let mut set = LiveSet::default();
    for r in inst.op.uses().into_iter().flatten() {
        set.add_reg(r);
    }
    for p in inst.op.pred_uses().into_iter().flatten() {
        set.add_pred(p);
    }
    if !inst.guard.is_always() {
        set.add_pred(inst.guard.pred);
    }
    if matches!(inst.op, LirOp::CallFunc(_)) {
        for r in ARG_REGS {
            set.add_reg(r);
        }
        set.preds = !0; // callee may observe any predicate
    }
    set
}

/// What one instruction writes. Calls only *reliably* define the link
/// register; claiming less than the callee might clobber overstates
/// liveness upstream, which is the safe direction for the speculation
/// checks built on these sets.
fn inst_writes(inst: &LirInst) -> LiveSet {
    let mut set = LiveSet::default();
    if let Some(r) = inst.op.def() {
        set.add_reg(r);
    }
    if let Some(p) = inst.op.pred_def() {
        set.add_pred(p);
    }
    set
}

/// Per-block live-in sets over a function's physical LIR.
///
/// Exit blocks (`ret`/`halt`) treat only `r1` — the ABI result — as
/// live-out: the register allocator's caller-save protocol means a
/// caller never relies on any other register, or on any predicate,
/// surviving a call.
pub fn live_in_sets(func: &Func) -> Vec<LiveSet> {
    let n = func.blocks.len();
    // use[b] = read before written; def[b] = written.
    let mut gen = vec![LiveSet::default(); n];
    let mut kill = vec![LiveSet::default(); n];
    for (bi, block) in func.blocks.iter().enumerate() {
        for inst in block.insts.iter().chain(block.term.iter()) {
            let reads = inst_reads(inst);
            gen[bi].regs |= reads.regs & !kill[bi].regs;
            gen[bi].preds |= reads.preds & !kill[bi].preds;
            let writes = inst_writes(inst);
            // A guarded write may not happen; it cannot kill liveness.
            if inst.guard.is_always() {
                kill[bi].regs |= writes.regs;
                kill[bi].preds |= writes.preds;
            }
        }
    }

    let mut result_only = LiveSet::default();
    result_only.add_reg(Reg::R1);

    let succs: Vec<Vec<usize>> = func
        .blocks
        .iter()
        .enumerate()
        .map(|(bi, block)| {
            let mut s = Vec::new();
            if let Some(t) = &block.term {
                if let LirOp::BrLabel(l) = &t.op {
                    if let Some(ti) = func.block_of_label(l) {
                        s.push(ti);
                    }
                }
            }
            if block.falls_through() && bi + 1 < n {
                s.push(bi + 1);
            }
            s
        })
        .collect();

    let mut live_in = vec![LiveSet::default(); n];
    let mut changed = true;
    while changed {
        changed = false;
        for bi in (0..n).rev() {
            let mut out = if succs[bi].is_empty() {
                result_only
            } else {
                let mut out = LiveSet::default();
                for &s in &succs[bi] {
                    out.union(live_in[s]);
                }
                out
            };
            out.regs = (out.regs & !kill[bi].regs) | gen[bi].regs;
            out.preds = (out.preds & !kill[bi].preds) | gen[bi].preds;
            if live_in[bi].union(out) {
                changed = true;
            }
        }
    }
    live_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::{AluOp, Guard, Op};

    fn alu(rd: u8, rs1: u8, rs2: u8) -> LirInst {
        LirInst::always(LirOp::Real(Op::AluR {
            op: AluOp::Add,
            rd: Reg::from_index(rd),
            rs1: Reg::from_index(rs1),
            rs2: Reg::from_index(rs2),
        }))
    }

    #[test]
    fn split_groups_blocks_by_labels_and_flow() {
        let module = Module {
            data_lines: Vec::new(),
            entry: "main".into(),
            items: vec![
                Item::FuncStart("main".into()),
                Item::Inst(alu(7, 0, 0)),
                Item::LoopBound { min: 1, max: 4 },
                Item::Label("head".into()),
                Item::Inst(alu(8, 7, 7)),
                Item::Inst(LirInst::new(
                    Guard::unless(Pred::P6),
                    LirOp::BrLabel("head".into()),
                )),
                Item::Inst(LirInst::always(LirOp::Real(Op::Halt))),
            ],
        };
        let split = split_blocks(&module);
        assert_eq!(split.funcs.len(), 1);
        let f = &split.funcs[0];
        assert_eq!(f.blocks.len(), 3);
        assert!(f.blocks[1].has_loop_bound);
        assert_eq!(f.blocks[1].labels, vec!["head".to_string()]);
        assert!(f.blocks[1].term.is_some());
        assert!(
            f.blocks[2].labels.is_empty(),
            "fall-through block is anonymous"
        );
        assert_eq!(f.block_of_label("head"), Some(1));
        assert_eq!(f.label_refs("head"), 1);
    }

    #[test]
    fn liveness_sees_result_register_at_exit() {
        // main: r8 = r0+r0; exit: r1 = r8+r0; halt.
        let module = Module {
            data_lines: Vec::new(),
            entry: "main".into(),
            items: vec![
                Item::FuncStart("main".into()),
                Item::Inst(alu(8, 0, 0)),
                Item::Inst(LirInst::always(LirOp::BrLabel("exit".into()))),
                Item::Label("exit".into()),
                Item::Inst(alu(1, 8, 0)),
                Item::Inst(LirInst::always(LirOp::Real(Op::Halt))),
            ],
        };
        let split = split_blocks(&module);
        let live = live_in_sets(&split.funcs[0]);
        let exit = split.funcs[0].block_of_label("exit").expect("exists");
        assert!(live[exit].has_reg(Reg::from_index(8)), "r8 live into exit");
        assert!(!live[exit].has_reg(Reg::from_index(9)), "r9 dead at exit");
        // r1 is live out of the exit block but killed inside it.
        assert!(!live[exit].has_reg(Reg::R1));
    }

    #[test]
    fn guarded_writes_do_not_kill() {
        // Block A: (p1) add r9 = r0, r0 then use of r9 downstream —
        // the guarded def must not hide r9's upstream liveness.
        let module = Module {
            data_lines: Vec::new(),
            entry: "main".into(),
            items: vec![
                Item::FuncStart("main".into()),
                Item::Label("a".into()),
                Item::Inst(LirInst::new(
                    Guard::when(Pred::P1),
                    LirOp::Real(Op::AluR {
                        op: AluOp::Add,
                        rd: Reg::from_index(9),
                        rs1: Reg::R0,
                        rs2: Reg::R0,
                    }),
                )),
                Item::Inst(alu(1, 9, 0)),
                Item::Inst(LirInst::always(LirOp::Real(Op::Halt))),
            ],
        };
        let split = split_blocks(&module);
        let live = live_in_sets(&split.funcs[0]);
        assert!(live[0].has_reg(Reg::from_index(9)));
        assert!(live[0].has_pred(Pred::P1));
    }
}
