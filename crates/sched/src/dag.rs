//! Dependence analysis over physical LIR: block splitting, the
//! pairwise minimum-gap relation the per-block DAGs are built from, and
//! a backward liveness dataflow used to prove speculative delay-slot
//! fills dead on the path that does not want them.
//!
//! The relation, [`dependence_gap`], is defined over [`DepSummary`]s:
//! bit masks of one op's register and predicate defs and reads (the
//! guard counted as a read), its result's `def_gap`, and four flags
//! (ordered, call, writes and reads the multiplier), all read from the
//! ISA through the op's [`AsmInst::shape`]. Callers summarise a block
//! or a loop body once, and then relate every pair at the cost of a few
//! mask tests.

use patmos_asm::{AsmInst, Operand, Stmt};
use patmos_isa::{FlowKind, Inst, Op, Pred, Reg, SpecialReg, ARG_REGS};
use patmos_lir::plir::Item;
use patmos_lir::Function;

/// What the dependence relation reads of one instruction, as bit masks:
/// built once per op, so relating two ops is a handful of mask tests
/// instead of re-querying both ops' operands.
#[derive(Debug, Clone, Copy)]
pub struct DepSummary {
    /// The register written (one bit), or no bit.
    def: u32,
    /// The registers read.
    uses: u32,
    /// The predicate written (one bit), or no bit.
    pred_def: u8,
    /// The predicates read, the guard included unless it is `always`.
    pred_reads: u8,
    /// The gap a reader of `def` must keep ([`def_gap`]).
    def_gap: u32,
    /// `ORDERED`, `CALL`, `WRITES_MUL` and `READS_MUL`.
    flags: u8,
}

/// A memory or stack-control op, whose order is preserved.
const ORDERED: u8 = 1;
/// A call by name ([`is_named_call`]): a barrier nothing moves across.
const CALL: u8 = 2;
/// Writes `sl`/`sh` ([`Op::writes_mul_result`]).
const WRITES_MUL: u8 = 4;
/// Reads `sl`/`sh`.
const READS_MUL: u8 = 8;

/// The extra bundle gap a consumer of `op`'s register result must
/// respect: loads deliver late.
fn def_gap(op: &Op) -> u32 {
    match op {
        Op::Load { .. } => 1 + patmos_isa::timing::LOAD_USE_GAP,
        _ => 1,
    }
}

/// Whether `inst` is a `call` of a function by name: a barrier the
/// relation moves nothing across, and a reader of every argument
/// register and predicate for the liveness below.
fn is_named_call(inst: &AsmInst) -> bool {
    matches!(
        inst,
        AsmInst::Flow {
            call: true,
            target: Operand::Sym(_),
            ..
        }
    )
}

/// The label a `br` by name targets.
pub(crate) fn branch_label(inst: &AsmInst) -> Option<&str> {
    match inst {
        AsmInst::Flow {
            call: false,
            target: Operand::Sym(label),
            ..
        } => Some(label),
        _ => None,
    }
}

impl DepSummary {
    /// The summary of `inst`, read from its [`AsmInst::shape`].
    pub fn of(inst: &AsmInst) -> DepSummary {
        let Inst { guard, op } = inst.shape();
        let reg_bit = |r: Reg| 1u32 << r.index();
        let pred_bit = |p: Pred| 1u8 << p.index();
        let guard = (!guard.is_always()).then_some(guard.pred);
        let flag = |on: bool, bit: u8| if on { bit } else { 0 };
        DepSummary {
            def: op.def().map_or(0, reg_bit),
            uses: (op.uses().into_iter().flatten())
                .map(reg_bit)
                .fold(0, |m, b| m | b),
            pred_def: op.pred_def().map_or(0, pred_bit),
            pred_reads: (op.pred_uses().into_iter().flatten().chain(guard))
                .map(pred_bit)
                .fold(0, |m, b| m | b),
            def_gap: def_gap(&op),
            flags: flag(op.is_memory() || op.is_stack_control(), ORDERED)
                | flag(is_named_call(inst), CALL)
                | flag(op.writes_mul_result(), WRITES_MUL)
                | flag(
                    matches!(
                        op,
                        Op::Mfs {
                            ss: SpecialReg::Sl | SpecialReg::Sh,
                            ..
                        }
                    ),
                    READS_MUL,
                ),
        }
    }
}

/// The minimum bundle gap from `a` (earlier in program order) to `b`
/// (later), or `None` when they are independent and may be reordered
/// freely.
///
/// A gap of `0` means `b` may share `a`'s bundle (both slots read
/// pre-state) but must not move *before* it; any caller that reorders
/// `b` in front of `a` must therefore require `None`, not `Some(0)`.
#[inline]
pub fn dependence_gap(a: &DepSummary, b: &DepSummary) -> Option<u32> {
    let (a_has, b_has) = (
        |flag: u8| a.flags & flag != 0,
        |flag: u8| b.flags & flag != 0,
    );
    // The rules, grouped by the gap they demand. `|` rather than `||`
    // keeps the pair test free of branches.
    //
    // A register RAW waits for the result (loads deliver late).
    let reg_raw = a.def & b.uses != 0;
    // `mul` -> `mfs` waits for the multiplier.
    let mul_raw = a_has(WRITES_MUL) & b_has(READS_MUL);
    // One bundle: memory/stack-control order is preserved, calls are
    // barriers (nothing moves across them), and register, predicate
    // and multiplier WAW and predicate RAW (guards included) do not
    // share a bundle.
    let one = (a_has(ORDERED) & b_has(ORDERED))
        | (a_has(CALL) | b_has(CALL))
        | (a.def & b.def != 0)
        | (a.pred_def & (b.pred_reads | b.pred_def) != 0)
        | (a_has(WRITES_MUL) & b_has(WRITES_MUL));
    // The same bundle is fine for a WAR (reads see pre-state), but `b`
    // must not move before `a`.
    let zero = (b.def & a.uses != 0)
        | (b.pred_def & a.pred_reads != 0)
        | (a_has(READS_MUL) & b_has(WRITES_MUL));

    // Gaps count from one here, so that zero stands for "no rule holds".
    let rule = |holds: bool, gap: u32| u32::from(holds) * (gap + 1);
    let raised = rule(reg_raw, a.def_gap)
        .max(rule(mul_raw, 1 + patmos_isa::timing::MUL_GAP))
        .max(rule(one, 1))
        .max(rule(zero, 0));
    raised.checked_sub(1)
}

/// The visible-delay residue an instruction owes *past* its issue
/// bundle: the number of bundles that must separate it from the first
/// bundle of whatever executes next (possibly in another block) before
/// every result it produces is architecturally visible.
pub fn out_gap(inst: &AsmInst) -> u32 {
    let op = inst.shape().op;
    if op.writes_mul_result() {
        1 + patmos_isa::timing::MUL_GAP
    } else if op.def().is_some() {
        def_gap(&op)
    } else {
        0
    }
}

/// One basic block of physical LIR.
#[derive(Debug, Clone)]
pub struct Block {
    /// Marker statements emitted before the block's bundles
    /// (`.loopbound`, labels), in original order.
    pub head: Vec<Stmt>,
    /// Whether a `.loopbound` annotation is attached to this block.
    pub has_loop_bound: bool,
    /// Straight-line body, terminator excluded.
    pub insts: Vec<AsmInst>,
    /// The control transfer ending the block, if any.
    pub term: Option<AsmInst>,
}

impl Block {
    fn new() -> Block {
        Block {
            head: Vec::new(),
            has_loop_bound: false,
            insts: Vec::new(),
            term: None,
        }
    }

    /// The labels naming this block (usually zero or one), in order.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.head.iter().filter_map(|stmt| match stmt {
            Stmt::Label(label) => Some(label.as_str()),
            _ => None,
        })
    }

    fn is_trivial(&self) -> bool {
        self.head.is_empty() && self.insts.is_empty() && self.term.is_none()
    }

    /// Whether control can fall off the end of this block into the
    /// next one in layout order.
    pub fn falls_through(&self) -> bool {
        let Some(term) = &self.term else { return true };
        // Calls resume after their delay slots; any other transfer falls
        // through when its guard is false.
        let Inst { guard, op } = term.shape();
        matches!(
            op.flow_kind(),
            FlowKind::CallDirect(_) | FlowKind::CallIndirect(_)
        ) || !guard.is_always()
    }
}

/// One function's blocks, in layout order.
#[derive(Debug, Clone)]
pub struct Func {
    /// Function name.
    pub name: String,
    /// Blocks in layout order; block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Func {
    /// The index of the block carrying `label`, if any.
    pub fn block_of_label(&self, label: &str) -> Option<usize> {
        self.blocks
            .iter()
            .position(|b| b.labels().any(|l| l == label))
    }

    /// How many branches of this function target `label`.
    pub fn label_refs(&self, label: &str) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.term.as_ref().and_then(branch_label) == Some(label))
            .count()
    }
}

/// Splits one function's linear items into basic blocks, moving each
/// item into its block. Blocks begin at labels (a `.loopbound` binds to
/// the label that follows it) and end at control transfers.
pub fn split_blocks(func: Function<Item>) -> Func {
    let mut blocks: Vec<Block> = Vec::new();
    let mut block = Block::new();

    let flush_block = |block: &mut Block, blocks: &mut Vec<Block>| {
        if !block.is_trivial() {
            blocks.push(std::mem::replace(block, Block::new()));
        }
    };

    let mut items = func.items.into_iter();
    while let Some(item) = items.next() {
        match item {
            Item::Label(name) => {
                // A label opens a new block unless the current one is
                // still empty (e.g. at the function's entry, or two
                // labels in a row).
                if !block.insts.is_empty() || block.term.is_some() {
                    flush_block(&mut block, &mut blocks);
                }
                block.head.push(Stmt::Label(name));
            }
            Item::LoopBound { min, max } => {
                if !block.insts.is_empty() || block.term.is_some() {
                    flush_block(&mut block, &mut blocks);
                }
                block.head.push(Stmt::LoopBound { min, max });
                block.has_loop_bound = true;
            }
            Item::Inst(inst) if inst.shape().op.is_flow() => {
                block.term = Some(inst);
                flush_block(&mut block, &mut blocks);
            }
            Item::Inst(inst) => {
                if block.insts.is_empty() {
                    // Room for the whole straight-line run at once.
                    let run = (items.as_slice().iter())
                        .take_while(|item| matches!(item, Item::Inst(i) if !i.shape().op.is_flow()))
                        .count();
                    block.insts.reserve_exact(run + 1);
                }
                block.insts.push(inst);
            }
        }
    }
    flush_block(&mut block, &mut blocks);

    Func {
        name: func.name,
        blocks,
    }
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

/// What one instruction reads, beyond what its shape's [`Op::uses`]
/// reports: a call by name reads its (up to four) argument registers
/// and, conservatively, every predicate.
fn inst_reads(inst: &AsmInst) -> LiveSet {
    let Inst { guard, op } = inst.shape();
    let mut set = LiveSet::default();
    for r in op.uses().into_iter().flatten() {
        set.add_reg(r);
    }
    for p in op.pred_uses().into_iter().flatten() {
        set.add_pred(p);
    }
    if !guard.is_always() {
        set.add_pred(guard.pred);
    }
    if is_named_call(inst) {
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
fn inst_writes(inst: &AsmInst) -> LiveSet {
    let op = inst.shape().op;
    let mut set = LiveSet::default();
    if let Some(r) = op.def() {
        set.add_reg(r);
    }
    if let Some(p) = op.pred_def() {
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
            if inst.shape().guard.is_always() {
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
            if let Some(ti) = (block.term.as_ref())
                .and_then(branch_label)
                .and_then(|l| func.block_of_label(l))
            {
                s.push(ti);
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
    use patmos_isa::{AccessSize, AluOp, Guard, MemArea};

    fn alu(rd: u8, rs1: u8, rs2: u8) -> AsmInst {
        AsmInst::Ready(Inst::always(Op::AluR {
            op: AluOp::Add,
            rd: Reg::from_index(rd),
            rs1: Reg::from_index(rs1),
            rs2: Reg::from_index(rs2),
        }))
    }

    fn br(guard: Guard, label: &str) -> AsmInst {
        AsmInst::Flow {
            guard,
            call: false,
            target: Operand::Sym(label.into()),
        }
    }

    #[test]
    fn a_load_result_is_owed_one_bundle_past_its_use_gap() {
        let load = AsmInst::Ready(Inst::always(Op::Load {
            area: MemArea::Stack,
            size: AccessSize::Word,
            rd: Reg::R3,
            ra: Reg::R0,
            offset: 0,
        }));
        assert!(DepSummary::of(&load).flags & ORDERED != 0);
        assert_eq!(out_gap(&load), 2);
    }

    #[test]
    fn split_groups_blocks_by_labels_and_flow() {
        let func = Function::new(
            "main",
            vec![
                Item::Inst(alu(7, 0, 0)),
                Item::LoopBound { min: 1, max: 4 },
                Item::Label("head".into()),
                Item::Inst(alu(8, 7, 7)),
                Item::Inst(br(Guard::unless(Pred::P6), "head")),
                Item::Inst(AsmInst::Ready(Inst::always(Op::Halt))),
            ],
        );
        let f = &split_blocks(func);
        assert_eq!(f.blocks.len(), 3);
        assert!(f.blocks[1].has_loop_bound);
        assert_eq!(f.blocks[1].labels().collect::<Vec<_>>(), ["head"]);
        assert!(f.blocks[1].term.is_some());
        assert!(
            f.blocks[2].labels().next().is_none(),
            "fall-through block is anonymous"
        );
        assert_eq!(f.block_of_label("head"), Some(1));
        assert_eq!(f.label_refs("head"), 1);
    }

    #[test]
    fn liveness_sees_result_register_at_exit() {
        // main: r8 = r0+r0; exit: r1 = r8+r0; halt.
        let func = Function::new(
            "main",
            vec![
                Item::Inst(alu(8, 0, 0)),
                Item::Inst(br(Guard::ALWAYS, "exit")),
                Item::Label("exit".into()),
                Item::Inst(alu(1, 8, 0)),
                Item::Inst(AsmInst::Ready(Inst::always(Op::Halt))),
            ],
        );
        let split = split_blocks(func);
        let live = live_in_sets(&split);
        let exit = split.block_of_label("exit").expect("exists");
        assert!(live[exit].has_reg(Reg::from_index(8)), "r8 live into exit");
        assert!(!live[exit].has_reg(Reg::from_index(9)), "r9 dead at exit");
        // r1 is live out of the exit block but killed inside it.
        assert!(!live[exit].has_reg(Reg::R1));
    }

    #[test]
    fn guarded_writes_do_not_kill() {
        // Block A: (p1) add r9 = r0, r0 then use of r9 downstream —
        // the guarded def must not hide r9's upstream liveness.
        let func = Function::new(
            "main",
            vec![
                Item::Label("a".into()),
                Item::Inst(AsmInst::Ready(Inst::new(
                    Guard::when(Pred::P1),
                    Op::AluR {
                        op: AluOp::Add,
                        rd: Reg::from_index(9),
                        rs1: Reg::R0,
                        rs2: Reg::R0,
                    },
                ))),
                Item::Inst(alu(1, 9, 0)),
                Item::Inst(AsmInst::Ready(Inst::always(Op::Halt))),
            ],
        );
        let live = live_in_sets(&split_blocks(func));
        assert!(live[0].has_reg(Reg::from_index(9)));
        assert!(live[0].has_pred(Pred::P1));
    }
}
