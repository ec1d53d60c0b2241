//! `AsmInst::shape` answers for the instruction the linker encodes.
//!
//! The scheduler asks every dependence, slot and delay question of an
//! instruction's shape, before its symbols are resolved. A pool of
//! instructions — every op shape the register allocator and the
//! schedulers emit, `br`/`call` by name and by value, `lil` of a symbol
//! (to `r0` too), each under the always, when and unless guards — is
//! linked inside one function that defines their symbols; each linked
//! instruction must answer every query as its shape does.

use patmos_asm::{link, AsmInst, AsmModule, Operand, Stmt};
use patmos_isa::{
    AccessSize, AluOp, CmpOp, Guard, Inst, MemArea, Op, Pred, PredOp, PredSrc, Reg, SpecialReg,
};

/// The registers each op shape is drawn over: `r0`, the result, an
/// argument, an allocatable register and the link register.
const REGS: [Reg; 5] = [Reg::R0, Reg::R1, Reg::R3, Reg::R7, Reg::R31];

/// Every op shape, over [`REGS`].
fn ops() -> Vec<Op> {
    let mut ops = vec![
        Op::Nop,
        Op::Ret,
        Op::Halt,
        Op::Sres { words: 4 },
        Op::Sens { words: 4 },
        Op::Sfree { words: 4 },
        Op::PredSet {
            op: PredOp::And,
            pd: Pred::P1,
            p1: PredSrc::plain(Pred::P2),
            p2: PredSrc::negated(Pred::P0),
        },
    ];
    for r in REGS {
        let s = Reg::R7;
        ops.extend([
            Op::AluR {
                op: AluOp::Add,
                rd: r,
                rs1: s,
                rs2: r,
            },
            Op::AluI {
                op: AluOp::Sub,
                rd: r,
                rs1: r,
                imm: 5,
            },
            Op::Mul { rs1: r, rs2: s },
            Op::LoadImmLow { rd: r, imm: 9 },
            Op::LoadImmHigh { rd: r, imm: 9 },
            Op::LoadImm32 {
                rd: r,
                imm: 0x1234_5678,
            },
            Op::Cmp {
                op: CmpOp::Lt,
                pd: Pred::P6,
                rs1: r,
                rs2: s,
            },
            Op::CmpI {
                op: CmpOp::Le,
                pd: Pred::P3,
                rs1: r,
                imm: 60,
            },
            Op::Load {
                area: MemArea::Stack,
                size: AccessSize::Word,
                rd: r,
                ra: s,
                offset: 2,
            },
            Op::Store {
                area: MemArea::Static,
                size: AccessSize::Byte,
                ra: r,
                offset: -1,
                rs: s,
            },
            Op::MainLoad { ra: r, offset: 3 },
            Op::MainWait { rd: r },
            Op::MainStore {
                ra: s,
                offset: 3,
                rs: r,
            },
            Op::CallR { rs: r },
            Op::Mts {
                sd: SpecialReg::Sm,
                rs: r,
            },
        ]);
        for ss in [SpecialReg::Sl, SpecialReg::Sh, SpecialReg::Sm] {
            ops.push(Op::Mfs { rd: r, ss });
        }
    }
    ops
}

/// The pool: every op and every symbolic or valued transfer and long
/// immediate, under each guard.
fn pool() -> Vec<AsmInst> {
    let mut pool = Vec::new();
    for guard in [
        Guard::ALWAYS,
        Guard::when(Pred::P2),
        Guard::unless(Pred::P5),
    ] {
        pool.extend(
            ops()
                .into_iter()
                .map(|op| AsmInst::Ready(Inst::new(guard, op))),
        );
        for call in [false, true] {
            let name = if call { "f" } else { "top" };
            for target in [Operand::Sym(name.into()), Operand::Val(0)] {
                pool.push(AsmInst::Flow {
                    guard,
                    call,
                    target,
                });
            }
        }
        for rd in REGS {
            for value in [Operand::Sym("table".into()), Operand::Val(0xbeef)] {
                pool.push(AsmInst::LongImm { guard, rd, value });
            }
        }
    }
    pool
}

#[test]
fn every_linked_instruction_answers_as_its_shape() {
    let pool = pool();
    let module: AsmModule = [
        Stmt::Data {
            name: "table".into(),
            addr: 1024,
        },
        Stmt::Words(vec![Operand::Val(0)]),
        Stmt::Func("f".into()),
        Stmt::Label("top".into()),
    ]
    .into_iter()
    .chain(pool.iter().map(|inst| Stmt::Bundle(vec![inst.clone()])))
    .collect();
    let image = link(&module).expect("the pool links");
    let linked = image.decode().expect("the image decodes");
    assert_eq!(linked.len(), pool.len());

    for (inst, (_, bundle)) in pool.iter().zip(&linked) {
        let (shape, linked) = (inst.shape(), *bundle.first());
        let (s, l) = (shape.op, linked.op);
        assert_eq!(
            std::mem::discriminant(&s),
            std::mem::discriminant(&l),
            "`{inst}` links to `{linked}`"
        );
        assert_eq!(shape.guard, linked.guard, "`{inst}`");
        assert_eq!(s.def(), l.def(), "`{inst}` def");
        assert_eq!(s.uses(), l.uses(), "`{inst}` uses");
        assert_eq!(s.pred_def(), l.pred_def(), "`{inst}` pred_def");
        assert_eq!(s.pred_uses(), l.pred_uses(), "`{inst}` pred_uses");
        assert_eq!(s.is_flow(), l.is_flow(), "`{inst}` is_flow");
        assert_eq!(shape.delay_slots(), linked.delay_slots(), "`{inst}` delay");
        assert_eq!(
            s.allowed_in_second_slot(),
            l.allowed_in_second_slot(),
            "`{inst}` second slot"
        );
    }
}
