//! Strength reduction of multiplications by known constants.
//!
//! The code generator lowers `a * b` to the `mul rs1, rs2` /
//! `mfs rd = sl` pair (the multiply unit writes the `sl`/`sh` special
//! registers). When one operand is a block-local constant, the pair is
//! replaced:
//!
//! * power of two → a single logical shift left (exact in wrapping
//!   32-bit arithmetic, including by 2³¹),
//! * `0` / `1` → an immediate load / the canonical copy,
//! * both operands constant → the folded immediate load.
//!
//! The rewrite fires only when the `mfs` reading `sl` immediately
//! follows its `mul` (the only pattern the code generator emits) and
//! the function never reads `sh`, so deleting the `mul` cannot starve
//! another consumer of the multiply unit.

use patmos_isa::{Op, SpecialReg};
use patmos_lir::{Function, VItem, VOp, VReg};

use crate::cache::Analyses;
use crate::util::{self, copy_op, load_imm, Consts, Scratch};

/// The replacement for `v * c` into `rd`, when one exists.
fn reduce(rd: VReg, v: VReg, c: u32) -> Option<VOp> {
    match c {
        0 => Some(load_imm(rd, 0)),
        1 => Some(copy_op(rd, v)),
        _ if c.is_power_of_two() => Some(VOp::Machine(Op::AluI {
            op: patmos_isa::AluOp::Shl,
            rd,
            rs1: v,
            imm: c.trailing_zeros() as i16,
        })),
        _ => None,
    }
}

/// Rewrites the `mul` at item `i` / `mfs sl` at item `j` when an
/// operand is constant, marking the `mul` for deletion.
fn try_reduce_pair(
    items: &mut [VItem],
    i: usize,
    j: usize,
    consts: &Consts,
    marked: &mut Vec<usize>,
) {
    let (VItem::Inst(mul), VItem::Inst(mfs)) = (&items[i], &items[j]) else {
        return;
    };
    let (VOp::Machine(Op::Mul { rs1, rs2 }), true) = (&mul.op, mul.guard.is_always()) else {
        return;
    };
    let (
        VOp::Machine(Op::Mfs {
            rd,
            ss: SpecialReg::Sl,
        }),
        true,
    ) = (&mfs.op, mfs.guard.is_always())
    else {
        return;
    };
    let (rd, rs1, rs2) = (*rd, *rs1, *rs2);
    let replacement = match (consts.get(rs1), consts.get(rs2)) {
        (Some(a), Some(b)) => Some(load_imm(rd, (a as i32).wrapping_mul(b as i32) as u32)),
        (Some(a), None) => reduce(rd, rs2, a),
        (None, Some(b)) => reduce(rd, rs1, b),
        (None, None) => None,
    };
    if let Some(new_op) = replacement {
        let VItem::Inst(mfs) = &mut items[j] else {
            unreachable!();
        };
        mfs.op = new_op;
        marked.push(i);
    }
}

/// Runs the pass over every block of one function.
pub(crate) fn run(func: &mut Function<VItem>, cache: &mut Analyses, scratch: &mut Scratch) -> bool {
    // Without a `mul` there is nothing to reduce; and a consumer of
    // `sh` would observe the deleted `mul`.
    let (mut has_mul, mut reads_sh) = (false, false);
    for item in &func.items {
        if let VItem::Inst(inst) = item {
            match inst.op {
                VOp::Machine(Op::Mul { .. }) => has_mul = true,
                VOp::Machine(Op::Mfs {
                    ss: SpecialReg::Sh, ..
                }) => reads_sh = true,
                _ => {}
            }
        }
    }
    if !has_mul || reads_sh {
        return false;
    }
    let Scratch { marked, consts, .. } = scratch;
    for block in cache.with_cfg(func).blocks() {
        consts.clear();
        for (w, &i) in block.iter().enumerate() {
            if let Some(&j) = block.get(w + 1) {
                try_reduce_pair(&mut func.items, i, j, consts, marked);
            }
            // A deleted `mul` defines nothing; a rewritten `mfs` is
            // tracked in its new (possibly constant-loading) form.
            let VItem::Inst(inst) = &func.items[i] else {
                unreachable!("blocks contain instruction indices only");
            };
            consts.update(inst);
        }
    }
    let changed = !marked.is_empty();
    util::remove_marked(&mut func.items, marked);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::AluOp;
    use patmos_lir::VInst;

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    fn mul_by_const(c: u16) -> Function<VItem> {
        Function::new(
            "main",
            vec![
                VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: c })),
                VItem::Inst(VInst::always(Op::Mul {
                    rs1: v(2),
                    rs2: v(1),
                })),
                VItem::Inst(VInst::always(Op::Mfs {
                    rd: v(3),
                    ss: SpecialReg::Sl,
                })),
                VItem::Inst(VInst::always(Op::Halt)),
            ],
        )
    }

    #[test]
    fn power_of_two_becomes_shift() {
        let mut m = mul_by_const(8);
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
        assert_eq!(m.items.len(), 3, "the mul is gone");
        assert!(matches!(
            &m.items[1],
            VItem::Inst(VInst {
                op: VOp::Machine(Op::AluI {
                    op: AluOp::Shl,
                    imm: 3,
                    ..
                }),
                ..
            })
        ));
    }

    #[test]
    fn non_power_of_two_is_kept() {
        let mut m = mul_by_const(7);
        assert!(!run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
        assert_eq!(m.items.len(), 4);
    }

    #[test]
    fn sh_reader_blocks_the_rewrite() {
        let mut m = mul_by_const(8);
        m.items.insert(
            3,
            VItem::Inst(VInst::always(Op::Mfs {
                rd: v(4),
                ss: SpecialReg::Sh,
            })),
        );
        assert!(!run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
    }

    #[test]
    fn mul_by_one_becomes_copy() {
        let mut m = mul_by_const(1);
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
        assert_eq!(
            crate::util::as_copy(match &m.items[1] {
                VItem::Inst(i) => &i.op,
                _ => unreachable!(),
            }),
            Some((v(3), v(2)))
        );
    }
}
