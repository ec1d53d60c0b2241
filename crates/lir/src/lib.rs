//! The shared virtual-register LIR of the PatC toolchain.
//!
//! The PatC code generator lowers the AST into this representation; the
//! mid-end optimizer (`patmos-opt`) rewrites it; the register allocator
//! (`patmos-regalloc`) consumes it and produces physical code. All three
//! stages share the analyses in this crate:
//!
//! * [`Function`] — one function: its name and its own items. Every
//!   stage's module owns its functions as a list of these, so a pass
//!   edits one function's items at a time and nothing searches a flat
//!   item list for function boundaries;
//! * [`vlir`] — the instructions over unbounded virtual registers
//!   ([`VReg`], [`VOp`], [`VInst`], [`VItem`], [`VModule`]): the ISA's
//!   own [`patmos_isa::Op`] over [`VReg`], beside the few operations the
//!   ISA cannot spell before allocation — a `lil`, `call` or `br` by
//!   name and the ABI copies — so every operand rule is the ISA's;
//! * [`mod@cfg`] — basic-block splitting, successor and predecessor
//!   edges over one function's virtual code ([`FuncCode`] numbers its
//!   instructions by their owned [`inst_positions`], so a caller can
//!   keep the numbering and the CFG beside a function it edits in
//!   place);
//! * [`liveness`] — backward liveness dataflow, one bitset solve per
//!   function: block-boundary live sets for dead-code elimination and
//!   loop-invariant code motion, and on top of them the live intervals
//!   for linear scan and the precise live-across-call sets the
//!   allocator saves;
//! * [`mod@dom`] — the dominator tree over the CFG (iterative
//!   Cooper–Harper–Kennedy);
//! * [`mod@loops`] — the natural-loop forest derived from the back
//!   edges, which the loop-aware mid-end passes (inlining enablement,
//!   loop-invariant code motion, unrolling) and
//!   `patmos-cli compile --dump-loops` consume;
//! * [`dot`] — Graphviz rendering of the per-function CFG
//!   (`patmos-cli compile --dump-cfg`);
//! * [`plir`] — the *physical* LIR over machine registers that the
//!   register allocator emits and the VLIW scheduler (`patmos-sched`)
//!   consumes ([`plir::Item`]s of the assembler's [`plir::AsmInst`],
//!   [`plir::Module`]).
//!
//! The virtual side deliberately knows nothing about physical registers
//! beyond the ABI copy pseudo-ops, and nothing about timing: scheduling
//! and frame layout live downstream, on the [`plir`] types.
//!
//! # Example: CFG, liveness and the loop forest over one function
//!
//! A counted loop in the code generator's shape — header entered by
//! fall-through, one back edge from the latch — analysed end to end:
//!
//! ```
//! use patmos_isa::{AluOp, CmpOp, Guard, Op, Pred};
//! use patmos_lir::{build_vcfg, inst_positions, BlockLiveness, FuncCode, Function, LoopForest};
//! use patmos_lir::{VInst, VItem, VOp, VReg};
//!
//! let v = VReg::new;
//! let items = vec![
//!     VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 0 })), // i
//!     VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(2), imm: 0 })), // acc
//!     VItem::LoopBound { min: 1, max: 9 },
//!     VItem::Label("sum_head1".into()),
//!     VItem::Inst(VInst::always(Op::CmpI {
//!         op: CmpOp::Lt,
//!         pd: Pred::P6,
//!         rs1: v(1),
//!         imm: 8,
//!     })),
//!     VItem::Inst(VInst::new(Guard::unless(Pred::P6), VOp::BrLabel("sum_exit2".into()))),
//!     VItem::Inst(VInst::always(Op::AluR {
//!         op: AluOp::Add,
//!         rd: v(2),
//!         rs1: v(2),
//!         rs2: v(1),
//!     })),
//!     VItem::Inst(VInst::always(Op::AluI {
//!         op: AluOp::Add,
//!         rd: v(1),
//!         rs1: v(1),
//!         imm: 1,
//!     })),
//!     VItem::Inst(VInst::always(VOp::BrLabel("sum_head1".into()))),
//!     VItem::Label("sum_exit2".into()),
//!     VItem::Inst(VInst::always(VOp::CopyToPhys {
//!         dst: patmos_isa::Reg::R1,
//!         src: v(2),
//!     })),
//!     VItem::Inst(VInst::always(Op::Ret)),
//! ];
//! let func = Function::new("sum", items);
//!
//! // The function's basic blocks and successor edges, over its
//! // instructions numbered in layout order.
//! let positions = inst_positions(&func.items);
//! let code = FuncCode::new(&func, &positions);
//! let cfg = build_vcfg(&code).expect("labels resolve");
//! assert_eq!(cfg.blocks.len(), 4); // entry, header, body+latch, exit
//! assert_eq!(cfg.blocks[1].succs, vec![3, 2]); // exit target, then fall-through
//! assert_eq!(cfg.blocks[1].preds, vec![0, 2]); // entry, then the back edge
//!
//! // Backward liveness: the accumulator v2 is live across the back
//! // edge, from its zero-init to the ABI copy.
//! let live = BlockLiveness::solve(&code, &cfg);
//! assert!(live.live_in(1).contains(v(2)));
//! assert_eq!(live.live_out(2).iter().collect::<Vec<_>>(), vec![v(1), v(2)]);
//!
//! // The natural-loop forest: one loop, header block 1, latch block 2.
//! let forest = LoopForest::build(&cfg);
//! assert_eq!(forest.loops.len(), 1);
//! assert_eq!((forest.loops[0].header, forest.loops[0].depth), (1, 1));
//! assert_eq!(forest.loops[0].latches, vec![2]);
//! ```

pub mod cfg;
pub mod dom;
pub mod dot;
pub mod liveness;
pub mod loops;
pub mod plir;
pub mod remark;
pub mod vlir;

pub use cfg::{build_vcfg, inst_positions, FuncCode, UndefinedLabel, VBlock, VCfg};
pub use dom::DomTree;
pub use liveness::{analyze, BlockLiveness, Interval, Liveness, VRegSet};
pub use loops::{header_lead, HeaderLead, LoopForest, NaturalLoop};
pub use remark::Remark;
pub use vlir::{VInst, VItem, VModule, VOp, VReg};

/// One function of a module: its name and its own code items, in
/// layout order. The virtual [`VModule`] holds `Function<VItem>`s, the
/// physical [`plir::Module`] `Function<plir::Item>`s, and the
/// scheduler's output its bundle items the same way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function<I> {
    /// The function's name (its `.func` symbol).
    pub name: String,
    /// The function's code items, in layout order.
    pub items: Vec<I>,
}

impl<I> Function<I> {
    /// A function named `name` with `items`.
    pub fn new(name: impl Into<String>, items: Vec<I>) -> Function<I> {
        Function {
            name: name.into(),
            items,
        }
    }
}
