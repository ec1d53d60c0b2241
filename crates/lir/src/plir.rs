//! Physical low-level IR: Patmos instructions over *machine* registers,
//! with labels and data symbols still unresolved.
//!
//! This is what the register allocator (`patmos-regalloc`) produces and
//! the VLIW scheduler (`patmos-sched`) consumes: real [`patmos_isa::Op`]
//! operations (plus label/symbol pseudo-ops) in linear [`Item`] order,
//! one item list per function of a [`Module`]. The query surface on
//! [`LirOp`] (defs, uses, ordering classes, visible-delay gaps) is the
//! single source of truth the scheduler's dependence analysis is built
//! on. A scheduled instruction becomes the assembler's
//! [`patmos_asm::AsmInst`] through its `From<LirInst>`, the one spelling
//! of a physical instruction.

use patmos_asm::{AsmInst, Operand};
use patmos_isa::{Guard, Inst, Op, Pred, Reg};

use crate::Function;

/// A low-level operation: either a fully resolved ISA operation or one
/// that still references a label or data symbol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LirOp {
    /// A resolved ISA operation.
    Real(Op),
    /// A branch to a label within the same function.
    BrLabel(String),
    /// A direct call to a function by name.
    CallFunc(String),
    /// `lil rd = symbol`.
    LilSym(Reg, String),
}

impl LirOp {
    /// The general-purpose register defined, mirroring [`Op::def`].
    pub fn def(&self) -> Option<Reg> {
        match self {
            LirOp::Real(op) => op.def(),
            LirOp::BrLabel(_) => None,
            LirOp::CallFunc(_) => Some(patmos_isa::LINK_REG),
            LirOp::LilSym(rd, _) => (!rd.is_zero()).then_some(*rd),
        }
    }

    /// Registers read, mirroring [`Op::uses`].
    pub fn uses(&self) -> [Option<Reg>; 2] {
        match self {
            LirOp::Real(op) => op.uses(),
            _ => [None, None],
        }
    }

    /// Rewrites the registers [`LirOp::uses`] reports through `f`,
    /// mirroring [`Op::map_uses`].
    pub fn map_uses(&mut self, f: impl FnMut(Reg) -> Reg) {
        if let LirOp::Real(op) = self {
            op.map_uses(f);
        }
    }

    /// Redirects the register [`LirOp::def`] reports to `new`, mirroring
    /// [`Op::set_def`]: `false` when there is none, or only the link
    /// register a call writes implicitly.
    pub fn set_def(&mut self, new: Reg) -> bool {
        match self {
            LirOp::Real(op) => op.set_def(new),
            LirOp::LilSym(rd, _) if !rd.is_zero() => {
                *rd = new;
                true
            }
            _ => false,
        }
    }

    /// The predicate defined, mirroring [`Op::pred_def`].
    pub fn pred_def(&self) -> Option<Pred> {
        match self {
            LirOp::Real(op) => op.pred_def(),
            _ => None,
        }
    }

    /// Predicates read by the operation body.
    pub fn pred_uses(&self) -> [Option<Pred>; 2] {
        match self {
            LirOp::Real(op) => op.pred_uses(),
            _ => [None, None],
        }
    }

    /// Whether this is a control transfer (ends a schedulable block).
    pub fn is_flow(&self) -> bool {
        match self {
            LirOp::Real(op) => op.is_flow(),
            LirOp::BrLabel(_) | LirOp::CallFunc(_) => true,
            LirOp::LilSym(..) => false,
        }
    }

    /// Whether this is a memory or stack-control operation whose order
    /// must be preserved.
    pub fn is_ordered(&self) -> bool {
        match self {
            LirOp::Real(op) => op.is_memory() || op.is_stack_control(),
            _ => false,
        }
    }

    /// Whether this op may go in the second issue slot.
    pub fn allowed_in_second_slot(&self) -> bool {
        match self {
            LirOp::Real(op) => op.allowed_in_second_slot(),
            _ => false,
        }
    }

    /// Whether this op occupies a whole bundle (`lil`).
    pub fn is_long(&self) -> bool {
        matches!(self, LirOp::LilSym(..)) || matches!(self, LirOp::Real(Op::LoadImm32 { .. }))
    }

    /// Whether this op writes `sl`/`sh` (the multiply unit).
    pub fn writes_mul(&self) -> bool {
        matches!(self, LirOp::Real(Op::Mul { .. }))
    }

    /// Whether this op reads `sl`/`sh`.
    pub fn reads_mul(&self) -> bool {
        matches!(
            self,
            LirOp::Real(Op::Mfs {
                ss: patmos_isa::SpecialReg::Sl | patmos_isa::SpecialReg::Sh,
                ..
            })
        )
    }

    /// The extra bundle gap a consumer of this op's register result must
    /// respect (loads deliver late).
    pub fn def_gap(&self) -> u32 {
        match self {
            LirOp::Real(Op::Load { .. }) => 1 + patmos_isa::timing::LOAD_USE_GAP,
            _ => 1,
        }
    }

    /// Delay slots this op exposes when it is a flow op with `guard`.
    pub fn delay_slots(&self, guard: Guard) -> u32 {
        match self {
            LirOp::Real(op) => patmos_isa::Inst::new(guard, *op).delay_slots(),
            LirOp::BrLabel(_) | LirOp::CallFunc(_) => {
                if guard.is_always() {
                    patmos_isa::timing::BRANCH_DELAY_UNCOND
                } else {
                    patmos_isa::timing::BRANCH_DELAY_COND
                }
            }
            LirOp::LilSym(..) => 0,
        }
    }
}

/// A guarded LIR instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LirInst {
    /// The guard.
    pub guard: Guard,
    /// The operation.
    pub op: LirOp,
}

impl LirInst {
    /// An unconditional instruction.
    pub fn always(op: LirOp) -> LirInst {
        LirInst {
            guard: Guard::ALWAYS,
            op,
        }
    }

    /// A guarded instruction.
    pub fn new(guard: Guard, op: LirOp) -> LirInst {
        LirInst { guard, op }
    }
}

/// The instruction as the assembler reads its text: a numeric `br` or
/// `call` operand is an absolute word, so a resolved branch or call
/// becomes a flow instruction whose target is its offset, exactly as
/// `Inst`'s rendering would parse.
impl From<LirInst> for AsmInst {
    fn from(inst: LirInst) -> AsmInst {
        let guard = inst.guard;
        let flow = |call: bool, target: Operand| AsmInst::Flow {
            guard,
            call,
            target,
        };
        match inst.op {
            LirOp::Real(Op::Br { offset }) => flow(false, Operand::Val(offset.into())),
            LirOp::Real(Op::Call { offset }) => flow(true, Operand::Val(offset.into())),
            LirOp::Real(op) => AsmInst::Ready(Inst::new(guard, op)),
            LirOp::BrLabel(label) => flow(false, Operand::Sym(label)),
            LirOp::CallFunc(func) => flow(true, Operand::Sym(func)),
            LirOp::LilSym(rd, sym) => AsmInst::LongImm {
                guard,
                rd,
                value: Operand::Sym(sym),
            },
        }
    }
}

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
    /// anything the pipeliner cannot reason about: a register bound,
    /// extra header work, a body that touches the exit predicate or
    /// the stack frame, special-register traffic beyond the multiply
    /// unit, or a non-canonical induction update.
    pub fn recognize(
        header: &[LirInst],
        header_term: &LirInst,
        body: &[LirInst],
        body_term: &LirInst,
    ) -> Option<CountedLoop> {
        // Header: exactly the compare, then the guarded exit branch.
        let [cmp] = header else { return None };
        let (cmp_op, pd, vi, bound) = match &cmp.op {
            LirOp::Real(Op::CmpI {
                op: op @ (patmos_isa::CmpOp::Lt | patmos_isa::CmpOp::Le),
                pd,
                rs1,
                imm,
            }) => (*op, *pd, *rs1, LoopBoundSrc::Imm(*imm)),
            LirOp::Real(Op::Cmp {
                op: op @ (patmos_isa::CmpOp::Lt | patmos_isa::CmpOp::Le),
                pd,
                rs1,
                rs2,
            }) if rs2 != rs1 => (*op, *pd, *rs1, LoopBoundSrc::Reg(*rs2)),
            _ => return None,
        };
        if !cmp.guard.is_always() || vi.is_zero() {
            return None;
        }
        if !(matches!(&header_term.op, LirOp::BrLabel(_))
            && header_term.guard.negate
            && header_term.guard.pred == pd)
        {
            return None;
        }
        if !matches!(&body_term.op, LirOp::BrLabel(_)) || !body_term.guard.is_always() {
            return None;
        }

        // Body: straight-line, no frame or special-register traffic
        // (the multiply unit excepted), no touch of the exit
        // predicate, and only canonical induction updates (one per
        // unrolled copy; their steps sum).
        let mut step: i32 = 0;
        for inst in body.iter() {
            let op = match &inst.op {
                LirOp::Real(op) => op,
                LirOp::LilSym(..) => {
                    continue;
                }
                LirOp::BrLabel(_) | LirOp::CallFunc(_) => return None,
            };
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
            if inst.op.pred_def() == Some(pd)
                || inst.op.pred_uses().into_iter().flatten().any(|p| p == pd)
                || (!inst.guard.is_always() && inst.guard.pred == pd)
            {
                return None;
            }
            // A register bound must be loop-invariant.
            if let LoopBoundSrc::Reg(k) = bound {
                if inst.op.def() == Some(k) {
                    return None;
                }
            }
            if inst.op.def() == Some(vi) {
                match op {
                    Op::AluI {
                        op: patmos_isa::AluOp::Add,
                        rs1,
                        imm,
                        ..
                    } if *rs1 == vi && inst.guard.is_always() && *imm > 0 => {
                        step += *imm as i32;
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
    Inst(LirInst),
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
    use patmos_isa::{AluOp, Op};

    #[test]
    fn render_matches_assembler_syntax() {
        let i = LirInst::always(LirOp::Real(Op::AluI {
            op: AluOp::Add,
            rd: Reg::R3,
            rs1: Reg::R3,
            imm: 1,
        }));
        assert_eq!(AsmInst::from(i).to_string(), "addi r3 = r3, 1");
        let b = LirInst::new(Guard::unless(Pred::P6), LirOp::BrLabel("f_L1".into()));
        assert_eq!(AsmInst::from(b).to_string(), "(!p6) br f_L1");
    }

    #[test]
    fn counted_loop_recognition() {
        use patmos_isa::{AluOp, CmpOp, Guard};
        let cmp = LirInst::always(LirOp::Real(Op::CmpI {
            op: CmpOp::Lt,
            pd: Pred::P6,
            rs1: Reg::from_index(7),
            imm: 60,
        }));
        let exit_br = LirInst::new(Guard::unless(Pred::P6), LirOp::BrLabel("exit".into()));
        let addi = |rd: u8, imm: i16| {
            LirInst::always(LirOp::Real(Op::AluI {
                op: AluOp::Add,
                rd: Reg::from_index(rd),
                rs1: Reg::from_index(rd),
                imm,
            }))
        };
        let back = LirInst::always(LirOp::BrLabel("head".into()));
        // Two canonical updates (a partially unrolled body): steps sum.
        let body = vec![addi(7, 1), addi(8, 4), addi(7, 2)];
        let cl = CountedLoop::recognize(std::slice::from_ref(&cmp), &exit_br, &body, &back)
            .expect("canonical shape");
        assert_eq!(cl.vi, Reg::from_index(7));
        assert_eq!(cl.step, 3);
        assert_eq!(cl.bound, LoopBoundSrc::Imm(60));
        // A body touching the exit predicate is rejected.
        let bad = vec![
            addi(7, 1),
            LirInst::new(Guard::when(Pred::P6), LirOp::Real(Op::Nop)),
        ];
        assert!(
            CountedLoop::recognize(std::slice::from_ref(&cmp), &exit_br, &bad, &back).is_none()
        );
        // A register bound is recognised when loop-invariant…
        let rcmp = LirInst::always(LirOp::Real(Op::Cmp {
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
    }

    #[test]
    fn flow_and_ordering_queries() {
        assert!(LirOp::BrLabel("x".into()).is_flow());
        assert!(LirOp::CallFunc("f".into()).is_flow());
        assert!(!LirOp::LilSym(Reg::R3, "g".into()).is_flow());
        assert!(LirOp::LilSym(Reg::R3, "g".into()).is_long());
        let load = LirOp::Real(Op::Load {
            area: patmos_isa::MemArea::Stack,
            size: patmos_isa::AccessSize::Word,
            rd: Reg::R3,
            ra: Reg::R0,
            offset: 0,
        });
        assert!(load.is_ordered());
        assert_eq!(load.def_gap(), 2);
    }
}
