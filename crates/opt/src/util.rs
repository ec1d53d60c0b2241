//! Shared pass infrastructure: constant tracking, instruction
//! builders, and item removal.

use patmos_isa::AluOp;
use patmos_lir::{VInst, VItem, VOp, VReg, VRegSet};

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
/// `items`.
pub(crate) fn remove_marked(items: &mut Vec<VItem>, marked: &mut [usize]) {
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

/// A table indexed by virtual-register id that grows on demand; an
/// id never written reads as `T::default()`.
pub(crate) struct ByReg<T>(Vec<T>);

impl<T: Copy + Default> ByReg<T> {
    pub(crate) fn new() -> ByReg<T> {
        ByReg(Vec::new())
    }

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

    /// Resets every entry to `T::default()`.
    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }
}

/// Block-local constant values of virtual registers. Only values
/// written by an unconditional immediate load are known; any other
/// definition of a register forgets it. A table indexed by register id,
/// with a bitset of the known entries, so forgetting a whole block is a
/// few word writes.
pub(crate) struct Consts {
    known: VRegSet,
    values: ByReg<u32>,
}

impl Consts {
    pub(crate) fn new() -> Consts {
        Consts {
            known: VRegSet::default(),
            values: ByReg::new(),
        }
    }

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
            VOp::LoadImmLow { imm, .. } => Some(imm as i16 as i32 as u32),
            VOp::LoadImm32 { imm, .. } => Some(imm),
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
