//! Basic-block splitting over virtual LIR, per function.
//!
//! This reuses the block-splitting idiom of `patmos-wcet`'s CFG
//! reconstruction, but at the virtual-instruction level: leaders are the
//! function entry, label positions, and the instruction after a
//! terminator. Calls do *not* end blocks — control returns to the next
//! instruction — but their positions are recorded so the allocator can
//! save live values around them.
//!
//! An edit that inserts, removes or moves only non-control instructions
//! (never a label, a branch, `ret`/`halt` or a call) leaves every leader
//! where it is among the labels and terminators, so unless it empties a
//! block or fills the gap between two leaders, the block graph is the
//! same: [`VCfg::relayout`] then renumbers the positions, block extents
//! and call positions in place and keeps the successor and predecessor
//! lists (and with them any dominator tree or loop forest built over
//! them).

use std::fmt;

use patmos_isa::Op;

use crate::vlir::{VInst, VItem, VOp};
use crate::Function;

/// The item index of every instruction of `items`, in layout order:
/// entry `p` locates the function's `p`-th instruction, its *position*.
/// The indices are owned, so they can be kept beside the function while
/// a pass rewrites its instructions in place; they stay valid until an
/// item is inserted, removed or moved.
pub fn inst_positions(items: &[VItem]) -> Vec<usize> {
    let mut positions = Vec::with_capacity(items.len());
    positions.extend(
        (items.iter().enumerate())
            .filter_map(|(idx, item)| matches!(item, VItem::Inst(_)).then_some(idx)),
    );
    positions
}

/// A function's virtual code with its instructions numbered in layout
/// order: position `p` is the function's `p`-th instruction, at item
/// index `insts[p]`.
pub struct FuncCode<'a> {
    /// Function name.
    pub name: &'a str,
    /// The function's items.
    pub items: &'a [VItem],
    /// The item index of each position, from [`inst_positions`].
    pub insts: &'a [usize],
}

impl<'a> FuncCode<'a> {
    /// Numbers the instructions of `func` by `insts`, its
    /// [`inst_positions`].
    pub fn new(func: &'a Function<VItem>, insts: &'a [usize]) -> FuncCode<'a> {
        FuncCode {
            name: &func.name,
            items: &func.items,
            insts,
        }
    }

    /// The instruction at position `pos`.
    pub fn inst(&self, pos: usize) -> &'a VInst {
        match &self.items[self.insts[pos]] {
            VItem::Inst(inst) => inst,
            _ => unreachable!("instruction positions index instructions"),
        }
    }

    /// The instructions in position order, as `(item_index, inst)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &'a VInst)> + '_ {
        (0..self.insts.len()).map(|pos| (self.insts[pos], self.inst(pos)))
    }
}

/// A basic block over instruction positions (indices into
/// [`FuncCode::insts`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VBlock {
    /// First position of the block.
    pub first: usize,
    /// One past the last position.
    pub end: usize,
    /// Successor block indices.
    pub succs: Vec<usize>,
    /// Predecessor block indices, in block order (a block whose two
    /// edges both reach this one is listed twice).
    pub preds: Vec<usize>,
}

/// The CFG of one function's virtual code.
#[derive(Debug, PartialEq, Eq)]
pub struct VCfg {
    /// Blocks in position order, tiling the positions without gaps;
    /// block 0 is the entry.
    pub blocks: Vec<VBlock>,
    /// Positions of `CallFunc` instructions.
    pub call_positions: Vec<usize>,
    /// Per block, how many labels and terminators precede its first
    /// instruction in the items: which gap between two of them the
    /// block fills. `None` when a label is defined twice, so that not
    /// every label leads a block; [`VCfg::relayout`] then always asks
    /// for a rebuild.
    gaps: Option<Vec<u32>>,
}

impl VCfg {
    /// The block containing position `pos`: a binary search, since the
    /// blocks tile the positions in order.
    pub fn block_of(&self, pos: usize) -> usize {
        let bi = self.blocks.partition_point(|b| b.end <= pos);
        assert!(bi < self.blocks.len(), "position belongs to a block");
        bi
    }

    /// Renumbers the CFG after an edit of `items` that inserted,
    /// removed or moved only non-control instructions — never a label,
    /// a branch, `ret`/`halt` or a call — since `positions` (the
    /// function's [`inst_positions`]) and the CFG were built: rewrites
    /// `positions`, every block's extent and the call positions in
    /// place, and keeps the successor and predecessor lists.
    ///
    /// The labels and terminators cut the items into gaps, and a block
    /// is exactly the instructions of one non-empty gap; the edit moved
    /// no cut, so the block graph is unchanged as long as the same gaps
    /// hold instructions. Returns `false` when they do not — the edit
    /// emptied a block or filled an empty gap — or when a label is
    /// defined twice: `positions` and the CFG are then stale, and the
    /// caller rebuilds both.
    pub fn relayout(&mut self, items: &[VItem], positions: &mut Vec<usize>) -> bool {
        let Some(gaps) = &self.gaps else {
            return false;
        };
        positions.clear();
        self.call_positions.clear();
        // The cuts passed so far, the gap the last instruction sat in,
        // and the next block to open.
        let (mut cuts, mut open, mut next) = (0u32, None, 0usize);
        for (idx, item) in items.iter().enumerate() {
            let inst = match item {
                VItem::Inst(inst) => inst,
                VItem::Label(_) => {
                    cuts += 1;
                    continue;
                }
                VItem::LoopBound { .. } => continue,
            };
            let pos = positions.len();
            if open != Some(cuts) {
                // The first instruction of a gap opens the next block.
                if gaps.get(next) != Some(&cuts) {
                    return false;
                }
                if let Some(prev) = next.checked_sub(1) {
                    self.blocks[prev].end = pos;
                }
                self.blocks[next].first = pos;
                (open, next) = (Some(cuts), next + 1);
            }
            if matches!(inst.op, VOp::CallFunc(_)) {
                self.call_positions.push(pos);
            }
            positions.push(idx);
            if inst.op.is_terminator() {
                cuts += 1;
            }
        }
        if next != self.blocks.len() {
            return false;
        }
        if let Some(last) = self.blocks.last_mut() {
            last.end = positions.len();
        }
        true
    }
}

/// A branch names a label its function does not define, so the branch
/// has no target block and the function no CFG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndefinedLabel {
    /// The label the branch names.
    pub label: String,
}

impl fmt::Display for UndefinedLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "branch to undefined label `{}`", self.label)
    }
}

impl std::error::Error for UndefinedLabel {}

/// Builds the CFG of one function.
///
/// # Errors
///
/// [`UndefinedLabel`] when a branch names a label the function does not
/// define.
pub fn build_vcfg(func: &FuncCode<'_>) -> Result<VCfg, UndefinedLabel> {
    let n = func.insts.len();
    // One walk over the items: the position of the instruction that
    // follows each label, the calls, and the leaders after terminators.
    let mut label_pos: Vec<(&str, usize)> = Vec::with_capacity(func.items.len().saturating_sub(n));
    let mut call_positions = Vec::new();
    let mut leader = vec![false; n + 1];
    if n > 0 {
        leader[0] = true;
    }
    let mut pos = 0usize;
    for item in func.items {
        match item {
            VItem::Label(name) => label_pos.push((name.as_str(), pos)),
            VItem::Inst(inst) => {
                if matches!(inst.op, VOp::CallFunc(_)) {
                    call_positions.push(pos);
                }
                if inst.op.is_terminator() && pos + 1 < n {
                    leader[pos + 1] = true;
                }
                pos += 1;
            }
            VItem::LoopBound { .. } => {}
        }
    }
    // Sorted by label (a stable sort, so of two equal labels the later
    // one is last — and is the one a branch resolves to, and the leader).
    label_pos.sort_by_key(|&(label, _)| label);
    let mut unique = true;
    for (i, &(label, pos)) in label_pos.iter().enumerate() {
        let resolved = label_pos.get(i + 1).is_none_or(|&(next, _)| next != label);
        unique &= resolved;
        if resolved && pos < n {
            leader[pos] = true;
        }
    }
    let target_of = |label: &str| {
        let at = label_pos.partition_point(|&(l, _)| l <= label);
        match at.checked_sub(1).map(|i| label_pos[i]) {
            Some((l, pos)) if l == label => Ok(pos),
            _ => Err(UndefinedLabel {
                label: label.to_string(),
            }),
        }
    };

    // Carve blocks.
    let mut blocks: Vec<VBlock> = Vec::with_capacity(leader.iter().filter(|&&l| l).count());
    let mut start = 0usize;
    for (pos, &is_leader) in leader.iter().enumerate().skip(1) {
        if pos == n || is_leader {
            blocks.push(VBlock {
                first: start,
                end: pos,
                succs: Vec::new(),
                preds: Vec::new(),
            });
            start = pos;
        }
    }

    // Successors, then predecessors in block order.
    let count = blocks.len();
    for bi in 0..count {
        let block = &blocks[bi];
        let last = func.inst(block.end - 1);
        let mut succs = Vec::new();
        match &last.op {
            VOp::BrLabel(label) => {
                let target_pos = target_of(label)?;
                if let Ok(tb) = blocks.binary_search_by_key(&target_pos, |b| b.first) {
                    succs.push(tb);
                }
                if !last.guard.is_always() && bi + 1 < count {
                    succs.push(bi + 1);
                }
            }
            VOp::Machine(Op::Ret | Op::Halt) => {}
            _ => {
                if bi + 1 < count {
                    succs.push(bi + 1);
                }
            }
        }
        blocks[bi].succs = succs;
    }
    for bi in 0..count {
        for si in 0..blocks[bi].succs.len() {
            let s = blocks[bi].succs[si];
            blocks[s].preds.push(bi);
        }
    }

    // With every label a leader, each block is the instructions between
    // two consecutive cuts (labels and terminators): number the gaps.
    let gaps = unique.then(|| {
        let (mut gaps, mut cuts, mut pos) = (Vec::with_capacity(count), 0u32, 0usize);
        for item in func.items {
            match item {
                VItem::Label(_) => cuts += 1,
                VItem::Inst(inst) => {
                    if blocks.get(gaps.len()).is_some_and(|b| b.first == pos) {
                        gaps.push(cuts);
                    }
                    pos += 1;
                    cuts += inst.op.is_terminator() as u32;
                }
                VItem::LoopBound { .. } => {}
            }
        }
        gaps
    });

    Ok(VCfg {
        blocks,
        call_positions,
        gaps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vlir::{VOp, VReg};
    use patmos_isa::{Guard, Pred};

    fn inst(op: impl Into<VOp>) -> VItem {
        VItem::Inst(VInst::always(op))
    }

    fn cfg_of(items: Vec<VItem>) -> VCfg {
        let func = Function::new("f", items);
        let positions = inst_positions(&func.items);
        build_vcfg(&FuncCode::new(&func, &positions)).expect("every branch label is defined")
    }

    #[test]
    fn loop_shape_produces_back_edge_block() {
        let cfg = cfg_of(vec![
            inst(Op::LoadImmLow {
                rd: VReg::new(1),
                imm: 5,
            }),
            VItem::Label("f_head".into()),
            inst(Op::AluI {
                op: patmos_isa::AluOp::Sub,
                rd: VReg::new(1),
                rs1: VReg::new(1),
                imm: 1,
            }),
            VItem::Inst(VInst::new(
                Guard::when(Pred::P6),
                VOp::BrLabel("f_head".into()),
            )),
            inst(Op::Halt),
        ]);
        assert_eq!(cfg.blocks.len(), 3);
        // Loop block branches to itself and falls through to the exit.
        assert_eq!(cfg.blocks[1].succs, vec![1, 2]);
        assert!(cfg.blocks[2].succs.is_empty());
        // Predecessors mirror the successor edges, in block order.
        assert_eq!(cfg.blocks[1].preds, vec![0, 1]);
        assert_eq!(cfg.blocks[2].preds, vec![1]);
        assert!(cfg.blocks[0].preds.is_empty());
    }

    #[test]
    fn calls_do_not_split_blocks() {
        let cfg = cfg_of(vec![
            inst(Op::LoadImmLow {
                rd: VReg::new(1),
                imm: 5,
            }),
            inst(VOp::CallFunc("g".into())),
            inst(Op::Halt),
        ]);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.call_positions, vec![1]);
    }

    #[test]
    fn an_undefined_branch_label_is_an_error() {
        let func = Function::new(
            "f",
            vec![inst(VOp::BrLabel("nowhere".into())), inst(Op::Halt)],
        );
        let positions = inst_positions(&func.items);
        let err = build_vcfg(&FuncCode::new(&func, &positions)).expect_err("no such label");
        assert_eq!(err.label, "nowhere");
        assert_eq!(err.to_string(), "branch to undefined label `nowhere`");
    }

    #[test]
    fn relayout_keeps_the_graph_until_a_block_empties() {
        let li = |imm| {
            inst(Op::LoadImmLow {
                rd: VReg::new(1),
                imm,
            })
        };
        let mut func = Function::new(
            "f",
            vec![
                li(1),
                VItem::Label("f_a".into()),
                li(2),
                li(3),
                VItem::Inst(VInst::new(
                    Guard::when(Pred::P6),
                    VOp::BrLabel("f_a".into()),
                )),
                VItem::Label("f_b".into()),
                inst(VOp::CallFunc("g".into())),
                inst(Op::Halt),
            ],
        );
        let mut positions = inst_positions(&func.items);
        let mut cfg = build_vcfg(&FuncCode::new(&func, &positions)).expect("labels resolve");

        // Deleting one of block 1's two instructions keeps every block.
        func.items.remove(2);
        assert!(cfg.relayout(&func.items, &mut positions));
        assert_eq!(positions, inst_positions(&func.items));
        let fresh = build_vcfg(&FuncCode::new(&func, &positions)).expect("labels resolve");
        assert_eq!(cfg, fresh);
        assert_eq!(cfg.call_positions, vec![3]);

        // Deleting the entry block's only instruction empties it.
        func.items.remove(0);
        assert!(!cfg.relayout(&func.items, &mut positions));
    }

    #[test]
    fn a_label_defined_twice_always_rebuilds() {
        let items = vec![
            VItem::Label("f_a".into()),
            inst(Op::Halt),
            VItem::Label("f_a".into()),
            inst(Op::Halt),
        ];
        let func = Function::new("f", items);
        let mut positions = inst_positions(&func.items);
        let mut cfg = build_vcfg(&FuncCode::new(&func, &positions)).expect("labels resolve");
        assert!(!cfg.relayout(&func.items, &mut positions));
    }
}
