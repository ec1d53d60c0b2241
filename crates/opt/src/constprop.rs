//! Constant folding and propagation (block-local).
//!
//! Tracks registers holding known immediate values and
//!
//! * folds ALU operations over known operands into immediate loads,
//! * narrows register-register forms to register-immediate forms when a
//!   known operand fits the immediate field,
//! * rewrites operands known to be zero to the hard-wired zero alias,
//! * canonicalises algebraic identities (`x + 0`, `x << 0`, `x & 0`, …)
//!   into the canonical copy or an immediate load, feeding the
//!   copy-propagation and dead-code passes.
//!
//! Definitions under a non-always guard forget the register (the old
//! value may flow through) but their operands are still rewritten — an
//! operand holds the same value whether or not the write is annulled.

use patmos_isa::{AluOp, CmpOp, Op};
use patmos_lir::{Function, VItem, VOp, VReg};

use crate::cache::Analyses;
use crate::util::{commutative, copy_op, load_imm, Consts, Scratch};

/// 12-bit signed ALU immediate range.
const ALU_IMM: std::ops::RangeInclusive<i32> = -2048..=2047;
/// 11-bit signed compare immediate range.
const CMP_IMM: std::ops::RangeInclusive<i32> = -1024..=1023;

/// Whether `x <op> 0 == x`.
fn zero_identity(op: AluOp) -> bool {
    matches!(
        op,
        AluOp::Add | AluOp::Sub | AluOp::Or | AluOp::Xor | AluOp::Shl | AluOp::Shr | AluOp::Sra
    )
}

/// Rewrites one operation; returns the replacement if anything changed.
fn rewrite(op: &VOp, consts: &Consts) -> Option<VOp> {
    // Operands known to be zero read the zero register directly. Most
    // operations have none, and are never cloned.
    let known_zero = |u: VReg| !u.is_zero() && consts.get(u) == Some(0);
    if !op.uses().into_iter().flatten().any(known_zero) {
        return structural_rewrite(op, consts).filter(|new| new != op);
    }
    let mut zeroed = op.clone();
    zeroed.map_uses(|u| if known_zero(u) { VReg::ZERO } else { u });
    let structural = structural_rewrite(&zeroed, consts).unwrap_or(zeroed);
    (structural != *op).then_some(structural)
}

/// The structural rules, applied after zero-operand replacement.
fn structural_rewrite(op: &VOp, consts: &Consts) -> Option<VOp> {
    match *op {
        VOp::Machine(Op::AluI {
            op: alu,
            rd,
            rs1,
            imm,
        }) => {
            if let Some(a) = consts.get(rs1) {
                return Some(load_imm(rd, alu.apply(a, imm as i32 as u32)));
            }
            if imm == 0 {
                if zero_identity(alu) {
                    return Some(copy_op(rd, rs1));
                }
                if alu == AluOp::And {
                    return Some(load_imm(rd, 0));
                }
            }
            None
        }
        VOp::Machine(Op::AluR {
            op: alu,
            rd,
            rs1,
            rs2,
        }) => {
            // The canonical copy `add rd = rs1, vz` is final form even
            // when rs1 is constant: folding it back to an immediate
            // load would oscillate with CSE (which rewrites duplicate
            // immediate loads *into* copies). Copy-prop forwards it and
            // DCE removes it instead.
            if alu == AluOp::Add && rs2.is_zero() {
                return None;
            }
            let (c1, c2) = (consts.get(rs1), consts.get(rs2));
            if let (Some(a), Some(b)) = (c1, c2) {
                return Some(load_imm(rd, alu.apply(a, b)));
            }
            // `x <op> 0` — rs2 known-zero became the zero alias during
            // zero replacement above.
            if rs2.is_zero() {
                if zero_identity(alu) {
                    return Some(copy_op(rd, rs1));
                }
                if alu == AluOp::And {
                    return Some(load_imm(rd, 0));
                }
            }
            if rs1.is_zero() && matches!(alu, AluOp::Add | AluOp::Or | AluOp::Xor) {
                return Some(copy_op(rd, rs2));
            }
            if let Some(b) = c2 {
                if ALU_IMM.contains(&(b as i32)) {
                    return Some(VOp::Machine(Op::AluI {
                        op: alu,
                        rd,
                        rs1,
                        imm: b as i32 as i16,
                    }));
                }
            }
            if let Some(a) = c1 {
                if commutative(alu) && ALU_IMM.contains(&(a as i32)) {
                    return Some(VOp::Machine(Op::AluI {
                        op: alu,
                        rd,
                        rs1: rs2,
                        imm: a as i32 as i16,
                    }));
                }
            }
            None
        }
        VOp::Machine(Op::Cmp {
            op: cmp,
            pd,
            rs1,
            rs2,
        }) => {
            if let Some(b) = consts.get(rs2) {
                if CMP_IMM.contains(&(b as i32)) {
                    return Some(VOp::Machine(Op::CmpI {
                        op: cmp,
                        pd,
                        rs1,
                        imm: b as i32 as i16,
                    }));
                }
            }
            if let Some(a) = consts.get(rs1) {
                if matches!(cmp, CmpOp::Eq | CmpOp::Neq) && CMP_IMM.contains(&(a as i32)) {
                    return Some(VOp::Machine(Op::CmpI {
                        op: cmp,
                        pd,
                        rs1: rs2,
                        imm: a as i32 as i16,
                    }));
                }
            }
            None
        }
        _ => None,
    }
}

/// Runs the pass over every block of one function.
pub(crate) fn run(func: &mut Function<VItem>, cache: &mut Analyses, scratch: &mut Scratch) -> bool {
    let mut changed = false;
    let consts = &mut scratch.consts;
    for block in cache.with_cfg(func).blocks() {
        consts.clear();
        for &idx in block {
            let VItem::Inst(inst) = &mut func.items[idx] else {
                unreachable!("blocks contain instruction indices only");
            };
            if let Some(new_op) = rewrite(&inst.op, consts) {
                inst.op = new_op;
                changed = true;
            }
            consts.update(inst);
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_lir::VInst;

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    fn func(items: Vec<VItem>) -> Function<VItem> {
        Function::new("main", items)
    }

    #[test]
    fn folds_chained_constants() {
        let mut m = func(vec![
            VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 6 })),
            VItem::Inst(VInst::always(Op::AluI {
                op: AluOp::Shl,
                rd: v(2),
                rs1: v(1),
                imm: 2,
            })),
            VItem::Inst(VInst::always(Op::Halt)),
        ]);
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
        assert!(matches!(
            m.items[1],
            VItem::Inst(VInst {
                op: VOp::Machine(Op::LoadImmLow { imm: 24, .. }),
                ..
            })
        ));
    }

    #[test]
    fn narrows_alur_with_constant_operand() {
        let mut m = func(vec![
            VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 3 })),
            VItem::Inst(VInst::always(Op::AluR {
                op: AluOp::Add,
                rd: v(3),
                rs1: v(2),
                rs2: v(1),
            })),
            VItem::Inst(VInst::always(Op::Halt)),
        ]);
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
        assert!(matches!(
            m.items[1],
            VItem::Inst(VInst {
                op: VOp::Machine(Op::AluI {
                    op: AluOp::Add,
                    imm: 3,
                    ..
                }),
                ..
            })
        ));
    }

    #[test]
    fn guarded_def_forgets_the_constant() {
        let mut m = func(vec![
            VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 0 })),
            VItem::Inst(VInst::new(
                patmos_isa::Guard::when(patmos_isa::Pred::P1),
                Op::LoadImmLow { rd: v(1), imm: 7 },
            )),
            VItem::Inst(VInst::always(Op::AluI {
                op: AluOp::Add,
                rd: v(2),
                rs1: v(1),
                imm: 1,
            })),
            VItem::Inst(VInst::always(Op::Halt)),
        ]);
        // The add must NOT fold: v1 is 0 or 7 depending on p1.
        run(&mut m, &mut Analyses::default(), &mut Scratch::default());
        assert!(matches!(
            m.items[2],
            VItem::Inst(VInst {
                op: VOp::Machine(Op::AluI { .. }),
                ..
            })
        ));
    }

    #[test]
    fn canonicalises_add_zero_to_copy() {
        let mut m = func(vec![
            VItem::Inst(VInst::always(Op::AluI {
                op: AluOp::Add,
                rd: v(2),
                rs1: v(1),
                imm: 0,
            })),
            VItem::Inst(VInst::always(Op::Halt)),
        ]);
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
        assert_eq!(
            crate::util::as_copy(match &m.items[0] {
                VItem::Inst(i) => &i.op,
                _ => unreachable!(),
            }),
            Some((v(2), v(1)))
        );
        // Idempotent: the canonical copy is stable.
        assert!(!run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
    }
}
