//! Shared pass infrastructure: constant tracking, instruction
//! builders, item removal, and the scratch tables the passes reuse.

use patmos_isa::{AluOp, Op};
use patmos_lir::{VInst, VItem, VOp, VReg, VRegSet};

use crate::{copyprop, cse, licm};

/// The tables the fixpoint passes fill, kept for a whole pipeline run:
/// each pass application clears what it uses and keeps the storage, so
/// a table grows to the largest function once instead of being
/// allocated and grown again by every application.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Item indices to delete (strength reduction, copy-prop, DCE);
    /// empty between uses.
    pub(crate) marked: Vec<usize>,
    /// Block-local constants (const-prop, strength reduction).
    pub(crate) consts: Consts,
    /// DCE's live set.
    pub(crate) live: VRegSet,
    pub(crate) cse: cse::Tables,
    pub(crate) copyprop: copyprop::Tables,
    pub(crate) licm: licm::Tables,
}

impl Scratch {
    /// Scratch whose register tables hold the registers `0..regs`
    /// without growing.
    pub(crate) fn with_regs(regs: usize) -> Scratch {
        Scratch {
            consts: Consts {
                values: ByReg::with_regs(regs),
                ..Consts::default()
            },
            cse: cse::Tables::with_regs(regs),
            copyprop: copyprop::Tables::with_regs(regs),
            licm: licm::Tables::with_regs(regs),
            ..Scratch::default()
        }
    }
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

/// Removes the items at the `marked` indices (in any order) from
/// `items`, and empties `marked`.
pub(crate) fn remove_marked(items: &mut Vec<VItem>, marked: &mut Vec<usize>) {
    if marked.is_empty() {
        return;
    }
    marked.sort_unstable();
    let mut next = marked.iter().copied().peekable();
    let mut idx = 0usize;
    items.retain(|_| {
        let mut keep = true;
        while next.next_if_eq(&idx).is_some() {
            keep = false;
        }
        idx += 1;
        keep
    });
    marked.clear();
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
        VOp::Machine(Op::LoadImmLow {
            rd,
            imm: value as u16,
        })
    } else {
        VOp::Machine(Op::LoadImm32 { rd, imm: value })
    }
}

/// The canonical register copy `rd = rs, r0`.
pub(crate) fn copy_op(rd: VReg, rs: VReg) -> VOp {
    VOp::Machine(Op::AluR {
        op: AluOp::Add,
        rd,
        rs1: rs,
        rs2: VReg::ZERO,
    })
}

/// Whether `op` is the canonical copy, returning its source.
pub(crate) fn as_copy(op: &VOp) -> Option<(VReg, VReg)> {
    match *op {
        VOp::Machine(Op::AluR {
            op: AluOp::Add,
            rd,
            rs1,
            rs2,
        }) if rs2.is_zero() && !rd.is_zero() => Some((rd, rs1)),
        _ => None,
    }
}

/// A table indexed by virtual-register id that grows on demand; an
/// id never written reads as `T::default()`.
pub(crate) struct ByReg<T>(Vec<T>);

impl<T> Default for ByReg<T> {
    fn default() -> ByReg<T> {
        ByReg(Vec::new())
    }
}

impl<T> ByReg<T> {
    /// An empty table with room for the registers `0..regs`.
    pub(crate) fn with_regs(regs: usize) -> ByReg<T> {
        ByReg(Vec::with_capacity(regs))
    }
}

impl<T: Copy + Default> ByReg<T> {
    pub(crate) fn get(&self, v: VReg) -> T {
        self.0.get(v.id() as usize).copied().unwrap_or_default()
    }

    pub(crate) fn slot(&mut self, v: VReg) -> &mut T {
        let id = v.id() as usize;
        if id >= self.0.len() {
            self.0.resize(id + 1, T::default());
        }
        &mut self.0[id]
    }

    /// Resets every entry to `T::default()`, keeping the storage.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// Block-local constant values of virtual registers. Only values
/// written by an unconditional immediate load are known; any other
/// definition of a register forgets it. A table indexed by register id,
/// with a bitset of the known entries, so forgetting a whole block is a
/// few word writes.
#[derive(Default)]
pub(crate) struct Consts {
    known: VRegSet,
    values: ByReg<u32>,
}

impl Consts {
    /// The known value of `v`, if any (the zero alias is always 0).
    pub(crate) fn get(&self, v: VReg) -> Option<u32> {
        if v.is_zero() {
            Some(0)
        } else {
            self.known.contains(v).then(|| self.values.get(v))
        }
    }

    /// Forgets every value (at a block boundary).
    pub(crate) fn clear(&mut self) {
        self.known.clear();
    }

    /// Records the effect of `inst` on the tracked constants. Call this
    /// *after* a pass has finished rewriting the instruction.
    pub(crate) fn update(&mut self, inst: &VInst) {
        let Some(d) = inst.op.def() else { return };
        let value = match inst.op {
            _ if !inst.guard.is_always() => None,
            VOp::Machine(Op::LoadImmLow { imm, .. }) => Some(imm as i16 as i32 as u32),
            VOp::Machine(Op::LoadImm32 { imm, .. }) => Some(imm),
            _ => None,
        };
        match value {
            Some(value) => {
                *self.values.slot(d) = value;
                self.known.insert(d);
            }
            None => {
                self.known.remove(d);
            }
        }
    }
}
