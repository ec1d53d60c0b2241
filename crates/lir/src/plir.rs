//! Physical low-level IR: Patmos instructions over *machine* registers,
//! with labels and data symbols still unresolved.
//!
//! This is what the register allocator (`patmos-regalloc`) produces and
//! the VLIW scheduler (`patmos-sched`) consumes: the assembler's
//! [`AsmInst`]s, one spelling of a physical instruction from the
//! allocator to the linker, in linear [`Item`] order, one item list per
//! function of a [`Module`]. A `br`, `call` or `lil` may still name a
//! label, function or data symbol; every question the scheduler's
//! dependence analysis asks (defs, uses, ordering classes, issue slots,
//! visible-delay gaps) goes to the ISA through [`AsmInst::shape`].

pub use patmos_asm::{AsmInst, Operand};
use patmos_isa::{Inst, Op, Pred, Reg};

use crate::Function;

/// The bound operand of a counted loop's header compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopBoundSrc {
    /// `cmpi<op> pd = vi, K` — a literal bound.
    Imm(i16),
    /// `cmp<op> pd = vi, rK` — a register bound, loop-invariant by
    /// construction (the recogniser rejects bodies that write it).
    Reg(Reg),
}

/// Metadata of a counted innermost loop recognised on *physical* LIR —
/// the loop-forest shape the mid-end analyses on virtual code, threaded
/// through register allocation by structure: the canonical header
/// (`cmpi<lt|le> pd = vi, K` + `(!pd) br exit`) followed by one
/// straight-line body block ending in the unconditional back branch,
/// with `vi` stepped exactly once by a constant.
///
/// This is what the software pipeliner (`patmos-sched`, scheduler
/// level 2) keys on: `vi`/`step`/`bound` give it the lookahead exit
/// test and the trip-count guard, `pd` the kernel branch predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountedLoop {
    /// The exit predicate the header compare defines.
    pub pd: Pred,
    /// The induction variable.
    pub vi: Reg,
    /// The header comparison (`Lt` or `Le`).
    pub cmp_op: patmos_isa::CmpOp,
    /// The loop bound `K` (literal, or a loop-invariant register).
    pub bound: LoopBoundSrc,
    /// The induction step per iteration (positive) — the sum of the
    /// body's canonical updates (a partially unrolled body carries one
    /// `addi` per copy).
    pub step: i32,
}

impl CountedLoop {
    /// Recognises the canonical counted-loop shape over a header block
    /// (instructions + conditional exit branch) and a body block
    /// (instructions + unconditional back branch). Returns `None` for
    /// anything the pipeliner cannot reason about: a register bound the
    /// body writes, extra header work, a body that touches the exit predicate or
    /// the stack frame, special-register traffic beyond the multiply
    /// unit, or a non-canonical induction update.
    pub fn recognize(
        header: &[AsmInst],
        header_term: &AsmInst,
        body: &[AsmInst],
        body_term: &AsmInst,
    ) -> Option<CountedLoop> {
        // Header: exactly the compare, then the guarded exit branch.
        let [cmp] = header else { return None };
        let cmp = cmp.shape();
        let (cmp_op, pd, vi, bound) = match cmp.op {
            Op::CmpI {
                op: op @ (patmos_isa::CmpOp::Lt | patmos_isa::CmpOp::Le),
                pd,
                rs1,
                imm,
            } => (op, pd, rs1, LoopBoundSrc::Imm(imm)),
            Op::Cmp {
                op: op @ (patmos_isa::CmpOp::Lt | patmos_isa::CmpOp::Le),
                pd,
                rs1,
                rs2,
            } if rs2 != rs1 => (op, pd, rs1, LoopBoundSrc::Reg(rs2)),
            _ => return None,
        };
        if !cmp.guard.is_always() || vi.is_zero() {
            return None;
        }
        // The exit and back branches name their labels.
        let branch_guard = |inst: &AsmInst| match inst {
            AsmInst::Flow {
                guard,
                call: false,
                target: Operand::Sym(_),
            } => Some(*guard),
            _ => None,
        };
        let (exit, back) = (branch_guard(header_term)?, branch_guard(body_term)?);
        if !(exit.negate && exit.pred == pd && back.is_always()) {
            return None;
        }

        // Body: straight-line, no frame or special-register traffic
        // (the multiply unit excepted), no touch of the exit
        // predicate, and only canonical induction updates (one per
        // unrolled copy; their steps sum).
        let mut step: i32 = 0;
        for inst in body {
            let Inst { guard, op } = inst.shape();
            if op.is_flow() || op.is_stack_control() {
                return None;
            }
            match op {
                Op::Mts { .. } => return None,
                Op::Mfs { ss, .. }
                    if !matches!(ss, patmos_isa::SpecialReg::Sl | patmos_isa::SpecialReg::Sh) =>
                {
                    return None
                }
                _ => {}
            }
            // The exit predicate belongs to the header compare alone.
            if op.pred_def() == Some(pd)
                || op.pred_uses().into_iter().flatten().any(|p| p == pd)
                || (!guard.is_always() && guard.pred == pd)
            {
                return None;
            }
            // A register bound must be loop-invariant.
            if let LoopBoundSrc::Reg(k) = bound {
                if op.def() == Some(k) {
                    return None;
                }
            }
            if op.def() == Some(vi) {
                match op {
                    Op::AluI {
                        op: patmos_isa::AluOp::Add,
                        rs1,
                        imm,
                        ..
                    } if rs1 == vi && guard.is_always() && imm > 0 => {
                        step += imm as i32;
                    }
                    _ => return None,
                }
            }
        }
        if step == 0 || step > i16::MAX as i32 {
            return None;
        }
        Some(CountedLoop {
            pd,
            vi,
            cmp_op,
            bound,
            step,
        })
    }
}

/// One item of a function's linear code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Item {
    /// A label.
    Label(String),
    /// A `.loopbound` annotation for the label that follows.
    LoopBound {
        /// Minimum header executions.
        min: u32,
        /// Maximum header executions.
        max: u32,
    },
    /// An instruction.
    Inst(AsmInst),
}

/// A compiled module: its functions and its entry.
#[derive(Debug, Clone, Default)]
pub struct Module {
    /// The functions, in layout order.
    pub funcs: Vec<Function<Item>>,
    /// Name of the entry function.
    pub entry: String,
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::{AluOp, Guard};

    /// A `br` to `label` under `guard`.
    fn br(guard: Guard, label: &str) -> AsmInst {
        AsmInst::Flow {
            guard,
            call: false,
            target: Operand::Sym(label.into()),
        }
    }

    /// A `lil rd = sym` under `guard`.
    fn lil(guard: Guard, rd: u8) -> AsmInst {
        AsmInst::LongImm {
            guard,
            rd: Reg::from_index(rd),
            value: Operand::Sym("table".into()),
        }
    }

    #[test]
    fn render_matches_assembler_syntax() {
        let i = AsmInst::Ready(Inst::always(Op::AluI {
            op: AluOp::Add,
            rd: Reg::R3,
            rs1: Reg::R3,
            imm: 1,
        }));
        assert_eq!(i.to_string(), "addi r3 = r3, 1");
        let b = br(Guard::unless(Pred::P6), "f_L1");
        assert_eq!(b.to_string(), "(!p6) br f_L1");
    }

    #[test]
    fn counted_loop_recognition() {
        use patmos_isa::CmpOp;
        let cmp = AsmInst::Ready(Inst::always(Op::CmpI {
            op: CmpOp::Lt,
            pd: Pred::P6,
            rs1: Reg::from_index(7),
            imm: 60,
        }));
        let exit_br = br(Guard::unless(Pred::P6), "exit");
        let addi = |rd: u8, imm: i16| {
            AsmInst::Ready(Inst::always(Op::AluI {
                op: AluOp::Add,
                rd: Reg::from_index(rd),
                rs1: Reg::from_index(rd),
                imm,
            }))
        };
        let back = br(Guard::ALWAYS, "head");
        // Two canonical updates (a partially unrolled body): steps sum.
        let body = vec![addi(7, 1), addi(8, 4), addi(7, 2)];
        let cl = CountedLoop::recognize(std::slice::from_ref(&cmp), &exit_br, &body, &back)
            .expect("canonical shape");
        assert_eq!(cl.vi, Reg::from_index(7));
        assert_eq!(cl.step, 3);
        assert_eq!(cl.bound, LoopBoundSrc::Imm(60));
        // A body touching the exit predicate is rejected.
        let bad = vec![addi(7, 1), AsmInst::Ready(Inst::when(Pred::P6, Op::Nop))];
        assert!(
            CountedLoop::recognize(std::slice::from_ref(&cmp), &exit_br, &bad, &back).is_none()
        );
        // A register bound is recognised when loop-invariant…
        let rcmp = AsmInst::Ready(Inst::always(Op::Cmp {
            op: CmpOp::Lt,
            pd: Pred::P6,
            rs1: Reg::from_index(7),
            rs2: Reg::from_index(11),
        }));
        let cl = CountedLoop::recognize(std::slice::from_ref(&rcmp), &exit_br, &body, &back)
            .expect("register bound");
        assert_eq!(cl.bound, LoopBoundSrc::Reg(Reg::from_index(11)));
        // …and rejected when the body writes it.
        let clobber = vec![addi(7, 1), addi(11, 1)];
        assert!(
            CountedLoop::recognize(std::slice::from_ref(&rcmp), &exit_br, &clobber, &back)
                .is_none()
        );
        // A `lil` of a symbol is checked like any other body op: it may
        // load an unrelated register, but not overwrite the induction
        // variable or the register bound, nor sit under the exit
        // predicate.
        let with_lil = |lil: AsmInst| vec![lil, addi(7, 1)];
        let unrelated = with_lil(lil(Guard::ALWAYS, 9));
        assert!(
            CountedLoop::recognize(std::slice::from_ref(&rcmp), &exit_br, &unrelated, &back)
                .is_some()
        );
        for body in [
            with_lil(lil(Guard::ALWAYS, 7)),
            with_lil(lil(Guard::ALWAYS, 11)),
            with_lil(lil(Guard::when(Pred::P6), 9)),
        ] {
            assert!(
                CountedLoop::recognize(std::slice::from_ref(&rcmp), &exit_br, &body, &back)
                    .is_none(),
                "{}",
                body[0]
            );
        }
    }

    #[test]
    fn flow_and_ordering_queries() {
        let shape = |inst: AsmInst| inst.shape().op;
        assert!(shape(br(Guard::ALWAYS, "x")).is_flow());
        let call = AsmInst::Flow {
            guard: Guard::ALWAYS,
            call: true,
            target: Operand::Sym("f".into()),
        };
        assert!(shape(call).is_flow());
        assert!(!shape(lil(Guard::ALWAYS, 3)).is_flow());
        assert!(matches!(shape(lil(Guard::ALWAYS, 3)), Op::LoadImm32 { .. }));
        let load = Op::Load {
            area: patmos_isa::MemArea::Stack,
            size: patmos_isa::AccessSize::Word,
            rd: Reg::R3,
            ra: Reg::R0,
            offset: 0,
        };
        assert!(shape(AsmInst::Ready(Inst::always(load))).is_memory());
    }
}
