//! Shared pass infrastructure: block discovery, constant tracking,
//! instruction builders, and item removal.

use std::collections::{BTreeSet, HashMap};

use patmos_isa::AluOp;
use patmos_lir::{FuncCode, Function, VInst, VItem, VOp, VReg};

/// The basic blocks of one function, each as the item indices of its
/// instructions in layout order, derived from the shared CFG
/// construction ([`patmos_lir::build_vcfg`]) so the block-local passes
/// and the dataflow analyses agree on block boundaries by
/// construction. The result owns its indices: compute it first, then
/// mutate instructions in place (do not add or remove items while
/// iterating it).
pub(crate) fn blocks(func: &Function<VItem>) -> Vec<Vec<usize>> {
    let code = FuncCode::new(func);
    let cfg = patmos_lir::build_vcfg(&code);
    cfg.blocks
        .iter()
        .filter(|b| b.first < b.end)
        .map(|b| (b.first..b.end).map(|pos| code.insts[pos].0).collect())
        .collect()
}

/// The largest virtual-register id the items use (fresh registers are
/// numbered past it).
pub(crate) fn max_vreg<'a>(items: impl IntoIterator<Item = &'a VItem>) -> u32 {
    let mut max = 0;
    for item in items {
        if let VItem::Inst(inst) = item {
            for r in inst.op.uses().into_iter().flatten().chain(inst.op.def()) {
                max = max.max(r.id());
            }
        }
    }
    max
}

/// Removes the marked item indices from `items`.
pub(crate) fn remove_marked(items: &mut Vec<VItem>, marked: &BTreeSet<usize>) {
    if marked.is_empty() {
        return;
    }
    let mut idx = 0usize;
    items.retain(|_| {
        let keep = !marked.contains(&idx);
        idx += 1;
        keep
    });
}

/// Whether swapping the operands of `op` preserves the result.
pub(crate) fn commutative(op: AluOp) -> bool {
    matches!(
        op,
        AluOp::Add | AluOp::And | AluOp::Or | AluOp::Xor | AluOp::Nor
    )
}

/// The cheapest materialisation of `value` into `rd`.
pub(crate) fn load_imm(rd: VReg, value: u32) -> VOp {
    if (-32768..=32767).contains(&(value as i32)) {
        VOp::LoadImmLow {
            rd,
            imm: value as u16,
        }
    } else {
        VOp::LoadImm32 { rd, imm: value }
    }
}

/// The canonical register copy `rd = rs, r0`.
pub(crate) fn copy_op(rd: VReg, rs: VReg) -> VOp {
    VOp::AluR {
        op: AluOp::Add,
        rd,
        rs1: rs,
        rs2: VReg::ZERO,
    }
}

/// Whether `op` is the canonical copy, returning its source.
pub(crate) fn as_copy(op: &VOp) -> Option<(VReg, VReg)> {
    match *op {
        VOp::AluR {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        } if rs2.is_zero() && !rd.is_zero() => Some((rd, rs1)),
        _ => None,
    }
}

/// Block-local constant values of virtual registers. Only values
/// written by an unconditional immediate load are known; any other
/// definition of a register forgets it.
#[derive(Default)]
pub(crate) struct Consts {
    map: HashMap<VReg, u32>,
}

impl Consts {
    /// The known value of `v`, if any (the zero alias is always 0).
    pub(crate) fn get(&self, v: VReg) -> Option<u32> {
        if v.is_zero() {
            Some(0)
        } else {
            self.map.get(&v).copied()
        }
    }

    /// Records the effect of `inst` on the tracked constants. Call this
    /// *after* a pass has finished rewriting the instruction.
    pub(crate) fn update(&mut self, inst: &VInst) {
        let Some(d) = inst.op.def() else { return };
        if inst.guard.is_always() {
            match inst.op {
                VOp::LoadImmLow { imm, .. } => {
                    self.map.insert(d, imm as i16 as i32 as u32);
                    return;
                }
                VOp::LoadImm32 { imm, .. } => {
                    self.map.insert(d, imm);
                    return;
                }
                _ => {}
            }
        }
        self.map.remove(&d);
    }
}
