//! Liveness-driven register allocation for the PatC compiler backend.
//!
//! The compiler's code generator emits LIR over an unbounded supply of
//! virtual registers ([`patmos_lir::vlir`]); this crate maps that code onto the
//! physical Patmos register file and produces the physical LIR
//! ([`lir`]) that the VLIW scheduler consumes:
//!
//! ```text
//! codegen ──VModule──▶ regalloc(&Policy, ·) ──Module──▶ scheduler ──▶ assembler
//! ```
//!
//! The [`Policy`] picks one of two allocators over shared interval
//! machinery: the deterministic linear scan (the default) or the
//! loop-aware allocator, which consults the [`patmos_lir`] loop forest
//! to assign registers round-robin inside hot loops, evict loop-quiet
//! values first, and hoist call-saves and spill reloads out to loop
//! preheaders. Both build a small CFG per function and run backward
//! liveness dataflow (shared with the mid-end via [`patmos_lir`]), then
//! scan the live intervals ([`allocator`]). The registers they use are
//! the conventions stated once in [`patmos_isa`]:
//!
//! * locals and temporaries live in the pool `r7`–`r28`
//!   ([`patmos_isa::ALLOC_POOL`]); spill slots in the stack cache are
//!   used only when more than 22 values are live at once, or when a
//!   value is live across a call (every allocatable register is
//!   caller-saved, as in the seed compiler's convention);
//! * the frame protocol the paper's stack-cache analysis expects — one
//!   `sres` on entry, `sens` after each call, one `sfree` per exit — is
//!   emitted here, sized to exactly the slots in use, so leaf functions
//!   without spills reserve nothing and generate *zero* stack-cache
//!   traffic;
//! * the output is plain unscheduled LIR: the downstream list scheduler
//!   legalises all visible delays (load-use gaps, branch delay slots),
//!   so the allocator never reasons about timing, only about values.
//!
//! # Example
//!
//! ```
//! use patmos_regalloc::vlir::{VInst, VItem, VModule, VOp, VReg};
//! use patmos_regalloc::Policy;
//!
//! let v1 = VReg::new(1);
//! let module = VModule {
//!     data_lines: Vec::new(),
//!     entry: "main".into(),
//!     items: vec![
//!         VItem::FuncStart("main".into()),
//!         VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v1, imm: 42 })),
//!         VItem::Inst(VInst::always(VOp::CopyToPhys { dst: patmos_isa::Reg::R1, src: v1 })),
//!         VItem::Inst(VInst::always(VOp::Halt)),
//!     ],
//! };
//! let (physical, report) = patmos_regalloc::regalloc(&Policy::Linear, &module)?;
//! assert_eq!(report.policy, "linear");
//! assert_eq!(report.funcs[0].frame_words, 0, "leaf without spills reserves nothing");
//! assert_eq!(physical.items.len(), 4);
//! # Ok::<(), patmos_regalloc::AllocError>(())
//! ```

pub mod allocator;
pub mod constraints;
pub mod lir;

/// Re-exported from [`patmos_lir`]: the shared CFG construction.
pub use patmos_lir::cfg;
/// Re-exported from [`patmos_lir`]: the shared liveness dataflow.
pub use patmos_lir::liveness;
/// Re-exported from [`patmos_lir`]: the shared virtual-register LIR.
pub use patmos_lir::vlir;

pub use allocator::{regalloc, AllocError, AllocReport, FuncAlloc, LoopClass};
pub use constraints::{Policy, PressureEstimate, PressureModel};
pub use patmos_lir::{Interval, VInst, VItem, VModule, VOp, VReg};

#[cfg(test)]
mod tests {
    use super::vlir::{VInst, VItem, VModule, VOp, VReg};
    use super::*;
    use crate::lir::{Item, LirInst, LirOp};
    use patmos_isa::{AluOp, Op, Reg};

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    fn module(items: Vec<VItem>) -> VModule {
        VModule {
            data_lines: Vec::new(),
            items,
            entry: "main".into(),
        }
    }

    fn alloc_linear(m: &VModule) -> Result<(lir::Module, AllocReport), AllocError> {
        regalloc(&Policy::Linear, m)
    }

    fn real_ops(items: &[Item]) -> Vec<&LirOp> {
        items
            .iter()
            .filter_map(|i| match i {
                Item::Inst(LirInst { op, .. }) => Some(op),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn simple_function_allocates_without_frame() {
        let m = module(vec![
            VItem::FuncStart("main".into()),
            VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(1), imm: 6 })),
            VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(2), imm: 7 })),
            VItem::Inst(VInst::always(VOp::AluR {
                op: AluOp::Add,
                rd: v(3),
                rs1: v(1),
                rs2: v(2),
            })),
            VItem::Inst(VInst::always(VOp::CopyToPhys {
                dst: Reg::R1,
                src: v(3),
            })),
            VItem::Inst(VInst::always(VOp::Halt)),
        ]);
        let (out, report) = alloc_linear(&m).expect("allocates");
        assert_eq!(report.funcs[0].frame_words, 0);
        assert_eq!(report.funcs[0].pressure_spills, 0);
        let ops = real_ops(&out.items);
        assert!(
            !ops.iter().any(|o| matches!(
                o,
                LirOp::Real(Op::Sres { .. } | Op::Sens { .. } | Op::Sfree { .. })
            )),
            "leaf without spills must not touch the stack cache"
        );
    }

    #[test]
    fn distinct_live_values_get_distinct_registers() {
        let m = module(vec![
            VItem::FuncStart("main".into()),
            VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(1), imm: 1 })),
            VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(2), imm: 2 })),
            VItem::Inst(VInst::always(VOp::AluR {
                op: AluOp::Add,
                rd: v(3),
                rs1: v(1),
                rs2: v(2),
            })),
            VItem::Inst(VInst::always(VOp::Halt)),
        ]);
        let (_, report) = alloc_linear(&m).expect("allocates");
        let fa = &report.funcs[0];
        let r1 = fa.assignments.iter().find(|(vr, _)| *vr == v(1)).unwrap().1;
        let r2 = fa.assignments.iter().find(|(vr, _)| *vr == v(2)).unwrap().1;
        assert_ne!(r1, r2, "overlapping intervals must not share a register");
    }

    #[test]
    fn pressure_beyond_the_pool_spills_deterministically() {
        // Define 30 values, then use them all: 22 fit, the rest spill.
        let mut items = vec![VItem::FuncStart("main".into())];
        for i in 1..=30u32 {
            items.push(VItem::Inst(VInst::always(VOp::LoadImmLow {
                rd: v(i),
                imm: i as u16,
            })));
        }
        // Pairwise sums keep every value live until its use.
        for i in 1..=29u32 {
            items.push(VItem::Inst(VInst::always(VOp::AluR {
                op: AluOp::Add,
                rd: v(100 + i),
                rs1: v(i),
                rs2: v(i + 1),
            })));
        }
        items.push(VItem::Inst(VInst::always(VOp::Halt)));
        let m = module(items);
        let (out, report) = alloc_linear(&m).expect("allocates");
        let fa = &report.funcs[0];
        assert!(
            fa.pressure_spills > 0,
            "30 simultaneously live values must spill"
        );
        assert!(fa.frame_words >= fa.pressure_spills as u32);
        // Deterministic: run twice, same result.
        let (out2, report2) = alloc_linear(&m).expect("allocates");
        assert_eq!(out.items.len(), out2.items.len());
        assert_eq!(report.funcs[0].frame_words, report2.funcs[0].frame_words);
    }

    #[test]
    fn values_live_across_calls_are_saved_and_restored() {
        let m = module(vec![
            VItem::FuncStart("f".into()),
            VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(1), imm: 9 })),
            VItem::Inst(VInst::always(VOp::CallFunc("g".into()))),
            VItem::Inst(VInst::always(VOp::CopyFromPhys {
                dst: v(2),
                src: Reg::R1,
            })),
            VItem::Inst(VInst::always(VOp::AluR {
                op: AluOp::Add,
                rd: v(3),
                rs1: v(1),
                rs2: v(2),
            })),
            VItem::Inst(VInst::always(VOp::CopyToPhys {
                dst: Reg::R1,
                src: v(3),
            })),
            VItem::Inst(VInst::always(VOp::Ret)),
        ]);
        let (out, report) = alloc_linear(&m).expect("allocates");
        let fa = &report.funcs[0];
        assert_eq!(fa.call_saved, 1, "only v1 crosses the call");
        // Frame: link slot + 1 save slot.
        assert_eq!(fa.frame_words, 2);
        let ops = real_ops(&out.items);
        let stores = ops
            .iter()
            .filter(|o| matches!(o, LirOp::Real(Op::Store { .. })))
            .count();
        // Link save + one call save.
        assert_eq!(stores, 2);
        assert!(ops
            .iter()
            .any(|o| matches!(o, LirOp::Real(Op::Sens { words: 2 }))));
    }

    #[test]
    fn guarded_returns_are_rejected() {
        // The epilogue (link restore, sfree) cannot share the return's
        // guard, so a guarded `ret` would free the frame and then fall
        // through; the allocator must refuse it like guarded calls.
        let m = module(vec![
            VItem::FuncStart("f".into()),
            VItem::Inst(VInst::new(
                patmos_isa::Guard::when(patmos_isa::Pred::P1),
                VOp::Ret,
            )),
            VItem::Inst(VInst::always(VOp::Ret)),
        ]);
        assert!(matches!(
            alloc_linear(&m),
            Err(AllocError::GuardedReturn { .. })
        ));
    }

    #[test]
    fn call_crossing_spills_are_not_double_counted_as_pressure() {
        // 30 values defined before a call and all used after it: every
        // one is live across the call, and the pool eviction pushes
        // some of them to memory. Their slot traffic is caller-save
        // traffic, so the pressure column must not count them again.
        let mut items = vec![VItem::FuncStart("f".into())];
        for i in 1..=30u32 {
            items.push(VItem::Inst(VInst::always(VOp::LoadImmLow {
                rd: v(i),
                imm: i as u16,
            })));
        }
        items.push(VItem::Inst(VInst::always(VOp::CallFunc("g".into()))));
        for i in 1..=29u32 {
            items.push(VItem::Inst(VInst::always(VOp::AluR {
                op: AluOp::Add,
                rd: v(100 + i),
                rs1: v(i),
                rs2: v(i + 1),
            })));
        }
        items.push(VItem::Inst(VInst::always(VOp::Ret)));
        let (_, report) = alloc_linear(&module(items)).expect("allocates");
        let fa = &report.funcs[0];
        assert_eq!(
            fa.call_saved, 30,
            "every pre-call value crosses the call, spilled or not"
        );
        assert_eq!(
            fa.pressure_spills, 0,
            "call-crossing evictions are caller-save traffic, not pressure"
        );
        // Each value owns exactly one slot: link + 30, no double booking.
        assert_eq!(fa.frame_words, 31);
    }

    #[test]
    fn loop_policy_round_robins_iteration_local_temporaries() {
        // A counted loop whose body computes two short-lived, disjoint
        // temporaries per iteration. Linear scan reuses one register
        // for both; the loop-aware FIFO hands out distinct ones, which
        // is exactly what kills the modulo scheduler's false
        // anti-dependences.
        let items = vec![
            VItem::FuncStart("main".into()),
            VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(1), imm: 0 })),
            VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(2), imm: 64 })),
            VItem::Label("main_head1".into()),
            VItem::Inst(VInst::always(VOp::CmpI {
                op: patmos_isa::CmpOp::Lt,
                pd: patmos_isa::Pred::P6,
                rs1: v(1),
                imm: 8,
            })),
            VItem::Inst(VInst::new(
                patmos_isa::Guard::unless(patmos_isa::Pred::P6),
                VOp::BrLabel("main_exit1".into()),
            )),
            VItem::Inst(VInst::always(VOp::AluI {
                op: AluOp::Add,
                rd: v(10),
                rs1: v(1),
                imm: 5,
            })),
            VItem::Inst(VInst::always(VOp::Store {
                area: patmos_isa::MemArea::Data,
                size: patmos_isa::AccessSize::Word,
                ra: v(2),
                offset: 0,
                rs: v(10),
            })),
            VItem::Inst(VInst::always(VOp::AluI {
                op: AluOp::Add,
                rd: v(11),
                rs1: v(1),
                imm: 9,
            })),
            VItem::Inst(VInst::always(VOp::Store {
                area: patmos_isa::MemArea::Data,
                size: patmos_isa::AccessSize::Word,
                ra: v(2),
                offset: 4,
                rs: v(11),
            })),
            VItem::Inst(VInst::always(VOp::AluI {
                op: AluOp::Add,
                rd: v(1),
                rs1: v(1),
                imm: 1,
            })),
            VItem::Inst(VInst::always(VOp::BrLabel("main_head1".into()))),
            VItem::Label("main_exit1".into()),
            VItem::Inst(VInst::always(VOp::Halt)),
        ];
        let m = module(items);
        let (_, linear) = regalloc(&Policy::Linear, &m).expect("linear");
        let (_, loops) = regalloc(&Policy::Loop, &m).expect("loop");
        let reg_of = |rep: &AllocReport, id: u32| {
            rep.funcs[0]
                .assignments
                .iter()
                .find(|(vr, _)| *vr == v(id))
                .map(|(_, r)| *r)
                .expect("assigned")
        };
        assert_eq!(
            reg_of(&linear, 10),
            reg_of(&linear, 11),
            "linear scan eagerly reuses the freed register"
        );
        assert_ne!(
            reg_of(&loops, 10),
            reg_of(&loops, 11),
            "the FIFO discipline must separate iteration-local temporaries"
        );
        assert_eq!(loops.policy, "loop");
        let classes = &loops.funcs[0].loop_classes;
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].label, "main_head1");
        assert!(
            classes[0].regs.len() >= 2,
            "the round-robin class covers the in-loop intervals"
        );
        // Determinism: the loop-aware policy replays exactly.
        let (out1, _) = regalloc(&Policy::Loop, &m).expect("loop");
        let (out2, _) = regalloc(&Policy::Loop, &m).expect("loop");
        assert_eq!(out1.items, out2.items);
    }

    #[test]
    fn loop_policy_hoists_invariant_call_saves_to_the_preheader() {
        // A value defined before the loop and live across a call inside
        // it: the save store belongs in the preheader, once, not on
        // every iteration.
        let items = vec![
            VItem::FuncStart("f".into()),
            VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(1), imm: 3 })),
            VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(2), imm: 0 })),
            VItem::Label("f_head1".into()),
            VItem::Inst(VInst::always(VOp::CmpI {
                op: patmos_isa::CmpOp::Lt,
                pd: patmos_isa::Pred::P6,
                rs1: v(2),
                imm: 4,
            })),
            VItem::Inst(VInst::new(
                patmos_isa::Guard::unless(patmos_isa::Pred::P6),
                VOp::BrLabel("f_exit1".into()),
            )),
            VItem::Inst(VInst::always(VOp::CallFunc("g".into()))),
            VItem::Inst(VInst::always(VOp::AluI {
                op: AluOp::Add,
                rd: v(2),
                rs1: v(2),
                imm: 1,
            })),
            VItem::Inst(VInst::always(VOp::BrLabel("f_head1".into()))),
            VItem::Label("f_exit1".into()),
            VItem::Inst(VInst::always(VOp::CopyToPhys {
                dst: Reg::R1,
                src: v(1),
            })),
            VItem::Inst(VInst::always(VOp::Ret)),
        ];
        let m = module(items);
        let (out, report) = regalloc(&Policy::Loop, &m).expect("loop");
        let fa = &report.funcs[0];
        assert_eq!(fa.hoisted_saves, 1, "v1's save belongs in the preheader");
        // The hoisted store must precede the loop header label.
        let header_at = out
            .items
            .iter()
            .position(|i| matches!(i, Item::Label(l) if l == "f_head1"))
            .expect("header label");
        let reg = fa
            .assignments
            .iter()
            .find(|(vr, _)| *vr == v(1))
            .map(|(_, r)| *r)
            .expect("v1 assigned");
        let store_at = out
            .items
            .iter()
            .position(
                |i| matches!(i, Item::Inst(LirInst { op: LirOp::Real(Op::Store { rs, .. }), .. }) if *rs == reg),
            )
            .expect("hoisted store");
        assert!(
            store_at < header_at,
            "the save store must sit in the preheader, before the header label"
        );
        // And no store of that register inside the loop body.
        let exit_at = out
            .items
            .iter()
            .position(|i| matches!(i, Item::Label(l) if l == "f_exit1"))
            .expect("exit label");
        let in_loop_stores = out.items[header_at..exit_at]
            .iter()
            .filter(
                |i| matches!(i, Item::Inst(LirInst { op: LirOp::Real(Op::Store { rs, .. }), .. }) if *rs == reg),
            )
            .count();
        assert_eq!(in_loop_stores, 0, "the per-call store was hoisted away");
    }

    #[test]
    fn entry_function_skips_the_link_save() {
        let m = module(vec![
            VItem::FuncStart("main".into()),
            VItem::Inst(VInst::always(VOp::CallFunc("g".into()))),
            VItem::Inst(VInst::always(VOp::CopyFromPhys {
                dst: v(1),
                src: Reg::R1,
            })),
            VItem::Inst(VInst::always(VOp::CopyToPhys {
                dst: Reg::R1,
                src: v(1),
            })),
            VItem::Inst(VInst::always(VOp::Halt)),
        ]);
        let (_, report) = alloc_linear(&m).expect("allocates");
        assert_eq!(
            report.funcs[0].frame_words, 0,
            "entry with nothing live across calls"
        );
    }
}
