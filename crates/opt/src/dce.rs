//! Dead-code elimination, driven by the shared liveness dataflow.
//!
//! Walks each block backwards from its live-out set and deletes pure
//! instructions whose result is dead at that point — the constant
//! re-materialisations, address temporaries, and copies the other
//! passes leave behind. Multiplies, compares, predicate ops, stores,
//! ABI copies and control flow are never touched; loads are (the PatC
//! memory areas cannot fault, so a dead load only warms a cache).

use patmos_lir::{Function, VItem};

use crate::cache::Analyses;
use crate::util::{self, Scratch};

/// Runs the pass over one function.
pub(crate) fn run(func: &mut Function<VItem>, cache: &mut Analyses, scratch: &mut Scratch) -> bool {
    let Scratch { marked, live, .. } = scratch;
    let cached = cache.with_liveness(func);
    let (positions, cfg, liveness) = (cached.positions(), cached.cfg(), cached.liveness());
    for (bi, block) in cfg.blocks.iter().enumerate() {
        live.assign(&liveness.live_out(bi));
        for &item_idx in positions[block.first..block.end].iter().rev() {
            let VItem::Inst(inst) = &func.items[item_idx] else {
                unreachable!("positions index instructions");
            };
            if inst.op.is_pure() && inst.op.def().is_some_and(|d| !live.contains(d)) {
                marked.push(item_idx);
                continue;
            }
            live.step_back(inst);
        }
    }
    let changed = !marked.is_empty();
    util::remove_marked(&mut func.items, marked);
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::{AluOp, Guard, Op, Pred, Reg};
    use patmos_lir::{VInst, VItem, VOp, VReg};

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    #[test]
    fn dead_chain_is_removed_transitively_over_rounds() {
        let mut m = Function::new(
            "main",
            vec![
                VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 1 })),
                VItem::Inst(VInst::always(Op::AluI {
                    op: AluOp::Add,
                    rd: v(2),
                    rs1: v(1),
                    imm: 2,
                })),
                VItem::Inst(VInst::always(VOp::CopyToPhys {
                    dst: Reg::R1,
                    src: VReg::ZERO,
                })),
                VItem::Inst(VInst::always(Op::Halt)),
            ],
        );
        // One backward walk removes the whole dead chain: v2's death
        // is seen before v1's definition is reached.
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
        assert_eq!(m.items.len(), 2);
        assert!(!run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
    }

    #[test]
    fn guarded_write_to_live_value_survives() {
        let mut m = Function::new(
            "main",
            vec![
                VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 0 })),
                VItem::Inst(VInst::new(
                    Guard::when(Pred::P1),
                    Op::LoadImmLow { rd: v(1), imm: 1 },
                )),
                VItem::Inst(VInst::always(VOp::CopyToPhys {
                    dst: Reg::R1,
                    src: v(1),
                })),
                VItem::Inst(VInst::always(Op::Halt)),
            ],
        );
        assert!(
            !run(&mut m, &mut Analyses::default(), &mut Scratch::default()),
            "both writes feed the live result"
        );
        assert_eq!(m.items.len(), 4);
    }

    #[test]
    fn dead_guarded_bool_materialisation_is_removed() {
        let mut m = Function::new(
            "main",
            vec![
                VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 0 })),
                VItem::Inst(VInst::new(
                    Guard::when(Pred::P1),
                    Op::LoadImmLow { rd: v(1), imm: 1 },
                )),
                VItem::Inst(VInst::always(Op::Halt)),
            ],
        );
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
        assert_eq!(m.items.len(), 1, "both writes of the dead bool go");
    }
}
