//! Lowering to the assembler's statements — the thin final layer of
//! the compiler.
//!
//! Scheduling itself is [`patmos_sched`] at every
//! [`CompileOptions::sched_level`](crate::CompileOptions::sched_level):
//! dependence DAGs, critical-path list scheduling, dual-issue packing,
//! delay-slot filling and, at level 2, software pipelining. Its
//! [`ScheduledModule`] already holds each function's statements; this
//! module puts the data layout, the `.entry` and `.func` directives and
//! the source map around them into one [`AsmModule`], which
//! [`patmos_asm::link`] encodes with no text in between. The module's
//! `Display` is the compiler's assembly text.

use std::collections::HashSet;

use patmos_asm::{AsmModule, Stmt};
use patmos_sched::ScheduledModule;

use crate::srcmap::SourceMap;

/// Lowers a scheduled module to assembler statements: the data layout
/// `data`, the entry, every function, then the source map as
/// `.srcfunc`/`.srcloop` directives.
///
/// The map is validated against the *final* code shape, so every
/// mid-end and back-end transformation is accounted for by
/// construction:
///
/// * a `.srcfunc` is emitted only for functions still present (the
///   inliner drops unreachable callees);
/// * a `.srcloop` whose header label is gone falls back to the
///   `{head}_pu` label a remainder unroll leaves behind (its span then
///   covers both the main and the remainder loop), and is dropped when
///   neither label survives (full unrolling flattened the loop — its
///   cycles correctly attribute to the enclosing function);
/// * divisor-unrolled and modulo-scheduled loops keep their header and
///   exit labels, so their spans pass through unchanged (a pipelined
///   loop's prologue, kernel, epilogue and fallback all lie between
///   the two labels).
pub fn lower(module: ScheduledModule, data: Vec<Stmt>, map: &SourceMap) -> AsmModule {
    let source_map = source_map(&module, map);
    let entry = (!module.entry.is_empty()).then_some(Stmt::Entry(module.entry));
    let funcs = (module.funcs.into_iter())
        .flat_map(|func| std::iter::once(Stmt::Func(func.name)).chain(func.items));
    data.into_iter()
        .chain(entry)
        .chain(funcs)
        .chain(source_map)
        .collect()
}

/// The source map's directives for the functions and loop labels that
/// survive in `module` (see [`lower`]).
fn source_map(module: &ScheduledModule, map: &SourceMap) -> Vec<Stmt> {
    let funcs: HashSet<&str> = module.funcs.iter().map(|f| f.name.as_str()).collect();
    let labels: HashSet<&str> = (module.funcs.iter().flat_map(|f| &f.items))
        .filter_map(|item| match item {
            Stmt::Label(name) => Some(name.as_str()),
            _ => None,
        })
        .collect();
    let mut out = Vec::new();
    for (name, line) in &map.funcs {
        if funcs.contains(name.as_str()) {
            out.push(Stmt::SrcFunc {
                name: name.clone(),
                line: *line,
            });
        }
    }
    for lp in &map.loops {
        let head = if labels.contains(lp.head.as_str()) {
            lp.head.clone()
        } else {
            let pu = format!("{}_pu", lp.head);
            if !labels.contains(pu.as_str()) {
                continue;
            }
            pu
        };
        if !labels.contains(lp.exit.as_str()) {
            continue;
        }
        out.push(Stmt::SrcLoop {
            line: lp.line,
            start: head,
            end: lp.exit.clone(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    //! The bundle contract lowering relies on, checked on the scheduler
    //! every level runs: pairing, dependence gaps, memory order, delay
    //! slots and fall-through padding.

    use patmos_asm::{AsmInst, Operand};
    use patmos_isa::{AccessSize, AluOp, Guard, Inst, MemArea, Op, Pred, Reg, SpecialReg};
    use patmos_lir::plir::{Item, Module};
    use patmos_lir::Function;
    use patmos_sched::SchedOptions;

    use crate::srcmap::SourceMap;

    fn alu(rd: u8, rs1: u8, rs2: u8) -> Item {
        op(Op::AluR {
            op: AluOp::Add,
            rd: Reg::from_index(rd),
            rs1: Reg::from_index(rs1),
            rs2: Reg::from_index(rs2),
        })
    }

    fn mem(store: bool, reg: u8) -> Item {
        let (area, size, ra, offset) = (MemArea::Stack, AccessSize::Word, Reg::R0, 1);
        let r = Reg::from_index(reg);
        op(if store {
            Op::Store {
                area,
                size,
                ra,
                offset,
                rs: r,
            }
        } else {
            Op::Load {
                area,
                size,
                rd: r,
                ra,
                offset,
            }
        })
    }

    fn op(op: Op) -> Item {
        Item::Inst(AsmInst::Ready(Inst::always(op)))
    }

    fn branch(guard: Guard) -> Item {
        Item::Inst(AsmInst::Flow {
            guard,
            call: false,
            target: Operand::Sym("x".into()),
        })
    }

    /// Schedules `items` as one function body and returns the lowered
    /// module's text lines after `.func`.
    fn sched(items: Vec<Item>, dual_issue: bool) -> Vec<String> {
        let module = Module {
            entry: String::new(),
            funcs: vec![Function::new("f", items)],
        };
        let options = SchedOptions {
            dual_issue,
            ..SchedOptions::default()
        };
        let scheduled = patmos_sched::schedule(module, &options);
        let text = super::lower(scheduled, Vec::new(), &SourceMap::default()).to_string();
        text.lines().skip(1).map(|l| l.trim().to_string()).collect()
    }

    #[test]
    fn independent_ops_pair_up() {
        let bundles = sched(vec![alu(3, 4, 5), alu(6, 7, 8)], true);
        assert_eq!(bundles, ["{ add r3 = r4, r5 ; add r6 = r7, r8 }"]);
    }

    #[test]
    fn dependent_ops_stay_apart() {
        let bundles = sched(vec![alu(3, 4, 5), alu(6, 3, 3)], true);
        assert_eq!(bundles, ["add r3 = r4, r5", "add r6 = r3, r3"]);
    }

    #[test]
    fn load_use_gap_gets_a_nop() {
        let bundles = sched(vec![mem(false, 3), alu(4, 3, 3)], true);
        assert_eq!(bundles, ["lws r3 = [r0 + 1]", "nop", "add r4 = r3, r3"]);
    }

    #[test]
    fn load_gap_filled_with_independent_work() {
        let bundles = sched(
            vec![mem(false, 3), alu(5, 6, 7), alu(8, 9, 10), alu(4, 3, 3)],
            true,
        );
        let want = [
            "{ lws r3 = [r0 + 1] ; add r5 = r6, r7 }",
            "add r8 = r9, r10",
            "add r4 = r3, r3",
        ];
        assert_eq!(bundles, want);
    }

    #[test]
    fn memory_order_is_preserved() {
        // Store, load, then the load's residue before the block ends.
        let bundles = sched(vec![mem(true, 9), mem(false, 3)], true);
        assert_eq!(bundles, ["sws [r0 + 1] = r9", "lws r3 = [r0 + 1]", "nop"]);
    }

    #[test]
    fn branch_gets_delay_slots() {
        // The branch is pulled forward so the op before it fills its
        // one delay slot.
        let bundles = sched(vec![alu(3, 4, 5), branch(Guard::ALWAYS)], true);
        assert_eq!(bundles, ["br x", "add r3 = r4, r5"]);
    }

    #[test]
    fn guarded_branch_gets_two_delay_slots() {
        let bundles = sched(vec![branch(Guard::unless(Pred::P6))], true);
        assert_eq!(bundles, ["(!p6) br x", "nop", "nop"]);
    }

    #[test]
    fn single_issue_never_pairs() {
        let bundles = sched(vec![alu(3, 4, 5), alu(6, 7, 8)], false);
        assert_eq!(bundles, ["add r3 = r4, r5", "add r6 = r7, r8"]);
    }

    #[test]
    fn trailing_load_before_label_pads_the_fall_through_edge() {
        // The load-use gap is owed to the block the load falls into.
        let bundles = sched(
            vec![mem(false, 3), Item::Label("head".into()), alu(4, 3, 3)],
            true,
        );
        assert_eq!(
            bundles,
            ["lws r3 = [r0 + 1]", "nop", "head:", "add r4 = r3, r3"]
        );
    }

    #[test]
    fn mul_gap_respected() {
        let (r3, r4, ss) = (Reg::from_index(3), Reg::from_index(4), SpecialReg::Sl);
        let mul = op(Op::Mul { rs1: r3, rs2: r4 });
        let bundles = sched(vec![mul, op(Op::Mfs { rd: r3, ss })], true);
        assert_eq!(bundles, ["mul r3, r4", "nop", "mfs r3 = sl"]);
    }
}
