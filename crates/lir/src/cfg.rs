//! Basic-block splitting over virtual LIR, per function.
//!
//! This reuses the block-splitting idiom of `patmos-wcet`'s CFG
//! reconstruction, but at the virtual-instruction level: leaders are the
//! function entry, label positions, and the instruction after a
//! terminator. Calls do *not* end blocks — control returns to the next
//! instruction — but their positions are recorded so the allocator can
//! save live values around them.

use std::collections::HashMap;

use crate::vlir::{VInst, VItem, VOp};
use crate::Function;

/// A function's virtual code with its instructions numbered in layout
/// order: position `p` is the function's `p`-th instruction.
pub struct FuncCode<'a> {
    /// Function name.
    pub name: &'a str,
    /// The function's items.
    pub items: &'a [VItem],
    /// The instructions in order, as `(item_index, inst)`.
    pub insts: Vec<(usize, &'a VInst)>,
}

impl<'a> FuncCode<'a> {
    /// Numbers the instructions of `func`.
    pub fn new(func: &'a Function<VItem>) -> FuncCode<'a> {
        let insts = (func.items.iter().enumerate())
            .filter_map(|(idx, item)| match item {
                VItem::Inst(inst) => Some((idx, inst)),
                VItem::Label(_) | VItem::LoopBound { .. } => None,
            })
            .collect();
        FuncCode {
            name: &func.name,
            items: &func.items,
            insts,
        }
    }
}

/// A basic block over instruction positions (indices into
/// [`FuncCode::insts`]).
#[derive(Debug, Clone)]
pub struct VBlock {
    /// First position of the block.
    pub first: usize,
    /// One past the last position.
    pub end: usize,
    /// Successor block indices.
    pub succs: Vec<usize>,
}

/// The CFG of one function's virtual code.
pub struct VCfg {
    /// Blocks in position order, tiling the positions without gaps;
    /// block 0 is the entry.
    pub blocks: Vec<VBlock>,
    /// Positions of `CallFunc` instructions.
    pub call_positions: Vec<usize>,
}

impl VCfg {
    /// The block containing position `pos`: a binary search, since the
    /// blocks tile the positions in order.
    pub fn block_of(&self, pos: usize) -> usize {
        let bi = self.blocks.partition_point(|b| b.end <= pos);
        assert!(bi < self.blocks.len(), "position belongs to a block");
        bi
    }
}

/// Builds the CFG of one function.
pub fn build_vcfg(func: &FuncCode<'_>) -> VCfg {
    let n = func.insts.len();
    // Position of the instruction that follows each label.
    let mut label_pos: HashMap<&str, usize> = HashMap::new();
    {
        let mut pos = 0usize;
        for item in func.items {
            match item {
                VItem::Label(name) => {
                    label_pos.insert(name.as_str(), pos);
                }
                VItem::Inst(_) => pos += 1,
                _ => {}
            }
        }
    }

    // Leaders: entry, label targets, and the position after a terminator.
    let mut leader = vec![false; n + 1];
    if n > 0 {
        leader[0] = true;
    }
    for &pos in label_pos.values() {
        if pos < n {
            leader[pos] = true;
        }
    }
    let mut call_positions = Vec::new();
    for (pos, (_, inst)) in func.insts.iter().enumerate() {
        if matches!(inst.op, VOp::CallFunc(_)) {
            call_positions.push(pos);
        }
        if inst.op.is_terminator() && pos + 1 < n {
            leader[pos + 1] = true;
        }
    }

    // Carve blocks.
    let mut blocks: Vec<VBlock> = Vec::new();
    let mut start = 0usize;
    for (pos, &is_leader) in leader.iter().enumerate().skip(1) {
        if pos == n || is_leader {
            blocks.push(VBlock {
                first: start,
                end: pos,
                succs: Vec::new(),
            });
            start = pos;
        }
    }

    // Successors.
    let block_at = |pos: usize| blocks.binary_search_by_key(&pos, |b| b.first).ok();
    let mut edits: Vec<(usize, Vec<usize>)> = Vec::new();
    for (bi, block) in blocks.iter().enumerate() {
        let mut succs = Vec::new();
        let last = &func.insts[block.end - 1].1;
        match &last.op {
            VOp::BrLabel(label) => {
                let target_pos = label_pos
                    .get(label.as_str())
                    .copied()
                    .expect("branch target label exists in the function");
                if let Some(tb) = block_at(target_pos) {
                    succs.push(tb);
                }
                if !last.guard.is_always() && bi + 1 < blocks.len() {
                    succs.push(bi + 1);
                }
            }
            VOp::Ret | VOp::Halt => {}
            _ => {
                if bi + 1 < blocks.len() {
                    succs.push(bi + 1);
                }
            }
        }
        edits.push((bi, succs));
    }
    for (bi, succs) in edits {
        blocks[bi].succs = succs;
    }

    VCfg {
        blocks,
        call_positions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vlir::{VOp, VReg};
    use patmos_isa::{Guard, Pred};

    fn inst(op: VOp) -> VItem {
        VItem::Inst(VInst::always(op))
    }

    fn cfg_of(items: Vec<VItem>) -> VCfg {
        build_vcfg(&FuncCode::new(&Function::new("f", items)))
    }

    #[test]
    fn loop_shape_produces_back_edge_block() {
        let cfg = cfg_of(vec![
            inst(VOp::LoadImmLow {
                rd: VReg::new(1),
                imm: 5,
            }),
            VItem::Label("f_head".into()),
            inst(VOp::AluI {
                op: patmos_isa::AluOp::Sub,
                rd: VReg::new(1),
                rs1: VReg::new(1),
                imm: 1,
            }),
            VItem::Inst(VInst::new(
                Guard::when(Pred::P6),
                VOp::BrLabel("f_head".into()),
            )),
            inst(VOp::Halt),
        ]);
        assert_eq!(cfg.blocks.len(), 3);
        // Loop block branches to itself and falls through to the exit.
        assert_eq!(cfg.blocks[1].succs, vec![1, 2]);
        assert!(cfg.blocks[2].succs.is_empty());
    }

    #[test]
    fn calls_do_not_split_blocks() {
        let cfg = cfg_of(vec![
            inst(VOp::LoadImmLow {
                rd: VReg::new(1),
                imm: 5,
            }),
            inst(VOp::CallFunc("g".into())),
            inst(VOp::Halt),
        ]);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.call_positions, vec![1]);
    }
}
