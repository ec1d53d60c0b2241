//! A seeded oracle for `list::schedule_block`: generated blocks of 1–60
//! operations over a handful of registers, every terminator kind, dual
//! and single issue. Whatever the schedule, each op is placed exactly
//! once, every dependence gap holds between final bundle positions, and
//! every visible-delay residue completes by the end of the block.

use patmos_isa::{AccessSize, AluOp, CmpOp, Guard, MemArea, Op, Pred, PredOp, PredSrc};
use patmos_isa::{Reg, SpecialReg};
use patmos_lir::plir::{LirInst, LirOp};
use patmos_sched::dag::{dependence_gap, out_gap};
use patmos_sched::list::schedule_block;

/// splitmix64: enough randomness for a reproducible sweep.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn reg(&mut self) -> Reg {
        Reg::from_index(1 + self.below(5) as u8)
    }

    fn pred(&mut self) -> Pred {
        [Pred::P1, Pred::P2, Pred::P3][self.below(3) as usize]
    }

    fn imm(&mut self) -> i16 {
        self.below(64) as i16
    }
}

/// One body op: ALU, immediate, load/store, `mul`/`mfs`, compare or
/// predicate logic, occasionally guarded.
fn body_op(rng: &mut Rng) -> LirInst {
    let area = [MemArea::Stack, MemArea::Static][rng.below(2) as usize];
    let op = match rng.below(11) {
        0 => Op::AluR {
            op: AluOp::Add,
            rd: rng.reg(),
            rs1: rng.reg(),
            rs2: rng.reg(),
        },
        1 => Op::AluI {
            op: AluOp::Sub,
            rd: rng.reg(),
            rs1: rng.reg(),
            imm: rng.imm(),
        },
        2 => Op::LoadImmLow {
            rd: rng.reg(),
            imm: rng.imm() as u16,
        },
        3 => Op::LoadImm32 {
            rd: rng.reg(),
            imm: rng.next() as u32,
        },
        4 => Op::Load {
            area,
            size: AccessSize::Word,
            rd: rng.reg(),
            ra: rng.reg(),
            offset: rng.imm(),
        },
        5 => Op::Store {
            area,
            size: AccessSize::Word,
            ra: rng.reg(),
            offset: rng.imm(),
            rs: rng.reg(),
        },
        6 => Op::Mul {
            rs1: rng.reg(),
            rs2: rng.reg(),
        },
        7 => Op::Mfs {
            rd: rng.reg(),
            ss: SpecialReg::Sl,
        },
        8 => Op::Cmp {
            op: CmpOp::Lt,
            pd: rng.pred(),
            rs1: rng.reg(),
            rs2: rng.reg(),
        },
        9 => Op::CmpI {
            op: CmpOp::Eq,
            pd: rng.pred(),
            rs1: rng.reg(),
            imm: rng.imm(),
        },
        _ => Op::PredSet {
            op: PredOp::And,
            pd: rng.pred(),
            p1: PredSrc::plain(rng.pred()),
            p2: PredSrc::plain(rng.pred()),
        },
    };
    let guard = match rng.below(6) {
        0 => Guard::when(rng.pred()),
        1 => Guard::unless(rng.pred()),
        _ => Guard::ALWAYS,
    };
    LirInst::new(guard, LirOp::Real(op))
}

/// Every terminator kind: fall-through, unconditional and conditional
/// label branches, and the barriers (call, return, halt).
fn terminator(kind: u64, rng: &mut Rng) -> Option<LirInst> {
    let label = || LirOp::BrLabel("next".into());
    match kind {
        0 => None,
        1 => Some(LirInst::always(label())),
        2 => Some(LirInst::new(Guard::unless(rng.pred()), label())),
        3 => Some(LirInst::always(LirOp::CallFunc("callee".into()))),
        4 => Some(LirInst::always(LirOp::Real(Op::Ret))),
        _ => Some(LirInst::always(LirOp::Real(Op::Halt))),
    }
}

fn is_nop(inst: &LirInst) -> bool {
    matches!(inst.op, LirOp::Real(Op::Nop))
}

#[test]
fn generated_blocks_schedule_legally() {
    const KINDS: u64 = 6;
    let mut rng = Rng(0x5eed_0f11_57a7);
    for case in 0..480u64 {
        let n = 1 + rng.below(60) as usize;
        let body: Vec<LirInst> = (0..n).map(|_| body_op(&mut rng)).collect();
        let term = terminator(case % KINDS, &mut rng);
        let dual = (case / KINDS) % 2 == 0;
        let s = schedule_block(&body, term.as_ref(), dual);
        let what = format!("case {case}: {n} ops, terminator {term:?}, dual {dual}");

        // Program order: the body, then the terminator.
        let program: Vec<&LirInst> = body.iter().chain(term.iter()).collect();
        let mut placed: Vec<(usize, &LirInst)> = Vec::new();
        for (p, (first, second)) in s.bundles.iter().enumerate() {
            assert!(dual || second.is_none(), "{what}: paired at {p}");
            if let Some(second) = second {
                assert!(
                    second.op.allowed_in_second_slot()
                        && !second.op.is_long()
                        && !first.op.is_long(),
                    "{what}: illegal pair at {p}"
                );
            }
            placed.extend(
                [Some(first), second.as_ref()]
                    .into_iter()
                    .flatten()
                    .map(|i| (p, i)),
            );
        }
        placed.retain(|(_, i)| !is_nop(i));

        // Each op exactly once. Identical ops are interchangeable, so
        // the k-th copy in program order takes the k-th copy's bundle.
        assert_eq!(placed.len(), program.len(), "{what}: op count");
        let mut at = vec![usize::MAX; program.len()];
        for (i, op) in program.iter().enumerate() {
            let copy = program[..i].iter().filter(|o| o == &op).count();
            let mut copies = placed.iter().filter(|(_, o)| o == op);
            let (p, _) = copies
                .nth(copy)
                .unwrap_or_else(|| panic!("{what}: op {i} `{}` missing", op.render()));
            at[i] = *p;
        }
        if term.is_some() {
            assert_eq!(s.term_at, Some(at[n]), "{what}: terminator position");
        }

        // Every dependence gap, between final positions.
        for i in 0..program.len() {
            for j in i + 1..program.len() {
                if let Some(gap) = dependence_gap(program[i], program[j]) {
                    assert!(
                        at[j] >= at[i] + gap as usize,
                        "{what}: `{}` @{} -> `{}` @{} needs gap {gap}",
                        program[i].render(),
                        at[i],
                        program[j].render(),
                        at[j]
                    );
                }
            }
        }

        // Every visible-delay residue completes inside the block.
        for (i, op) in body.iter().enumerate() {
            assert!(
                at[i] + out_gap(op) as usize <= s.bundles.len(),
                "{what}: `{}` @{} owes {} past {} bundles",
                op.render(),
                at[i],
                out_gap(op),
                s.bundles.len()
            );
        }
    }
}
