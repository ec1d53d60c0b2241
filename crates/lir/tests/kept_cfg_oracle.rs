//! A seeded oracle for [`VCfg::relayout`], the renumbering that lets
//! the mid-end keep a function's CFG, dominator tree and loop forest
//! across an edit that inserts, removes or moves only non-control
//! instructions.
//!
//! Generated functions of 1–60 instructions, with labels (now and then
//! one defined twice), `.loopbound`s, guarded and unguarded branches,
//! calls and `ret`/`halt`, take a sequence of such edits: deleting one
//! non-control instruction, deleting every non-control instruction of a
//! block, moving a pure instruction to the end of the block that falls
//! through into its own, or moving one into an empty gap between two
//! labels or terminators (as LICM does to a preheader behind a jump).
//! After each edit the renumbered positions and CFG, and the dominator
//! tree and loop forest kept over them, must equal fresh builds. The
//! renumbering must be refused — the rebuild fallback — whenever the
//! block count changed (a block emptied or a gap filled), and exactly
//! when the non-empty gaps changed or a label is defined twice.

use patmos_isa::{AccessSize, AluOp, Guard, MemArea, Op, Pred, Reg};
use patmos_lir::{build_vcfg, inst_positions, DomTree, FuncCode, LoopForest, VCfg};
use patmos_lir::{Function, VInst, VItem, VOp, VReg};

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

    fn vreg(&mut self) -> VReg {
        VReg::new(1 + self.below(8) as u32)
    }
}

/// One instruction: mostly pure arithmetic, sometimes memory, a call,
/// a branch to one of `labels` labels, or `ret`/`halt`.
fn gen_inst(rng: &mut Rng, labels: usize) -> VInst {
    let op = match rng.below(12) {
        0..=2 => VOp::Machine(Op::AluR {
            op: AluOp::Add,
            rd: rng.vreg(),
            rs1: rng.vreg(),
            rs2: rng.vreg(),
        }),
        3 => VOp::Machine(Op::LoadImmLow {
            rd: rng.vreg(),
            imm: 7,
        }),
        4 => VOp::Machine(Op::Load {
            area: MemArea::Static,
            size: AccessSize::Word,
            rd: rng.vreg(),
            ra: rng.vreg(),
            offset: 0,
        }),
        5 => VOp::Machine(Op::Store {
            area: MemArea::Static,
            size: AccessSize::Word,
            ra: rng.vreg(),
            offset: 0,
            rs: rng.vreg(),
        }),
        6 => VOp::CopyToPhys {
            dst: Reg::R1,
            src: rng.vreg(),
        },
        7 => VOp::CallFunc("g".into()),
        8 | 9 if labels > 0 => {
            let target = VOp::BrLabel(format!("L{}", rng.below(labels as u64)));
            let guard = match rng.below(2) {
                0 => Guard::ALWAYS,
                _ => Guard::when(Pred::P1),
            };
            return VInst::new(guard, target);
        }
        10 => match rng.below(2) {
            0 => VOp::Machine(Op::Ret),
            _ => VOp::Machine(Op::Halt),
        },
        _ => VOp::Machine(Op::AluI {
            op: AluOp::Sub,
            rd: rng.vreg(),
            rs1: rng.vreg(),
            imm: 1,
        }),
    };
    VInst::always(op)
}

/// A function of 1–60 instructions with up to six labels, each before
/// some instruction or at the very end, some behind a `.loopbound`;
/// one function in eight defines its first label twice.
fn gen_function(rng: &mut Rng) -> Function<VItem> {
    let n = 1 + rng.below(60) as usize;
    let labels = rng.below(7) as usize;
    let mut label_pos: Vec<(usize, usize)> = (0..labels)
        .map(|l| (rng.below(n as u64 + 1) as usize, l))
        .collect();
    if labels > 0 && rng.below(8) == 0 {
        label_pos.push((rng.below(n as u64 + 1) as usize, 0));
    }
    let mut items = Vec::new();
    for pos in 0..=n {
        for &(at, l) in &label_pos {
            if at == pos {
                if rng.below(3) == 0 {
                    items.push(VItem::LoopBound { min: 1, max: 8 });
                }
                items.push(VItem::Label(format!("L{l}")));
            }
        }
        if pos < n {
            items.push(VItem::Inst(gen_inst(rng, labels)));
        }
    }
    Function::new("f", items)
}

/// Whether `inst` is one an instruction-only edit may touch: anything
/// but a branch, `ret`/`halt` or a call.
fn non_control(inst: &VInst) -> bool {
    !inst.op.is_terminator() && !matches!(inst.op, VOp::CallFunc(_))
}

fn inst_at(func: &Function<VItem>, item: usize) -> &VInst {
    match &func.items[item] {
        VItem::Inst(inst) => inst,
        _ => unreachable!("positions index instructions"),
    }
}

/// Applies one random instruction-only edit to `func`, whose layout
/// `positions` and `cfg` describe; returns what it did, or `None` when
/// the drawn edit has nothing to work on.
fn edit(
    rng: &mut Rng,
    func: &mut Function<VItem>,
    positions: &[usize],
    cfg: &VCfg,
) -> Option<String> {
    let block = rng.below(cfg.blocks.len() as u64) as usize;
    let b = &cfg.blocks[block];
    let own: Vec<usize> = (b.first..b.end)
        .map(|p| positions[p])
        .filter(|&i| non_control(inst_at(func, i)))
        .collect();
    match rng.below(5) {
        // Delete one non-control instruction anywhere.
        0 | 1 => {
            let doomed: Vec<usize> = (positions.iter().copied())
                .filter(|&i| non_control(inst_at(func, i)))
                .collect();
            let item = *doomed.get(rng.below(doomed.len().max(1) as u64) as usize)?;
            func.items.remove(item);
            Some(format!("delete item {item}"))
        }
        // Delete every non-control instruction of one block.
        2 => {
            if own.is_empty() {
                return None;
            }
            for &item in own.iter().rev() {
                func.items.remove(item);
            }
            Some(format!("clear block {block}"))
        }
        // Move a pure instruction into an empty gap: before a label
        // that starts the function or follows a label or terminator.
        3 => {
            let &item = own.iter().find(|&&i| inst_at(func, i).op.is_pure())?;
            let gaps: Vec<usize> = (0..func.items.len())
                .filter(|&i| matches!(func.items[i], VItem::Label(_)))
                .filter(|&i| {
                    let before = func.items[..i]
                        .iter()
                        .rfind(|item| !matches!(item, VItem::LoopBound { .. }));
                    match before {
                        None | Some(VItem::Label(_)) => true,
                        Some(VItem::Inst(inst)) => inst.op.is_terminator(),
                        Some(VItem::LoopBound { .. }) => unreachable!("skipped"),
                    }
                })
                .collect();
            let at = *gaps.get(rng.below(gaps.len().max(1) as u64) as usize)?;
            let moved = func.items.remove(item);
            let at = if at > item { at - 1 } else { at };
            func.items.insert(at, moved);
            Some(format!("move item {item} into the gap at {at}"))
        }
        // Move a pure instruction to the end of the block that falls
        // through into this one: before its terminator, if it ends in
        // a guarded branch.
        _ => {
            let pred = block.checked_sub(1)?;
            if !cfg.blocks[pred].succs.contains(&block) {
                return None;
            }
            let &item = own
                .iter()
                .find(|&&i| inst_at(func, i).op.is_pure() && rng.below(2) == 0)?;
            let last = positions[cfg.blocks[pred].end - 1];
            let at = if inst_at(func, last).op.is_terminator() {
                last
            } else {
                last + 1
            };
            let moved = func.items.remove(item);
            func.items.insert(at, moved);
            Some(format!("move item {item} to {at}"))
        }
    }
}

fn has_duplicate_label(func: &Function<VItem>) -> bool {
    let mut labels: Vec<&str> = (func.items.iter())
        .filter_map(|item| match item {
            VItem::Label(l) => Some(l.as_str()),
            _ => None,
        })
        .collect();
    labels.sort_unstable();
    labels.windows(2).any(|w| w[0] == w[1])
}

/// The non-empty gaps of `func`: for each run of instructions between
/// two cuts (labels and terminators), how many cuts precede it.
fn gaps(func: &Function<VItem>) -> Vec<u32> {
    let (mut gaps, mut cuts) = (Vec::new(), 0u32);
    for item in &func.items {
        match item {
            VItem::Label(_) => cuts += 1,
            VItem::Inst(inst) => {
                if gaps.last() != Some(&cuts) {
                    gaps.push(cuts);
                }
                cuts += inst.op.is_terminator() as u32;
            }
            VItem::LoopBound { .. } => {}
        }
    }
    gaps
}

fn fresh(func: &Function<VItem>) -> (Vec<usize>, VCfg) {
    let positions = inst_positions(&func.items);
    let cfg = build_vcfg(&FuncCode::new(func, &positions)).expect("generated labels resolve");
    (positions, cfg)
}

#[test]
fn renumbered_cfgs_match_fresh_builds_and_fall_back_when_a_block_empties() {
    let mut rng = Rng(0x006b_6570_7463_6667);
    let (mut kept, mut rebuilt) = (0u32, 0u32);
    for case in 0..1500 {
        let mut func = gen_function(&mut rng);
        let (mut positions, mut cfg) = fresh(&func);
        let mut dom = DomTree::build(&cfg);
        let mut forest = LoopForest::build_with_dom(&cfg, &dom);
        for step in 0..8 {
            if cfg.blocks.is_empty() {
                break;
            }
            let before = func.clone();
            let Some(what) = edit(&mut rng, &mut func, &positions, &cfg) else {
                continue;
            };
            let same_gaps = gaps(&before) == gaps(&func);
            let ctx = || {
                let text: Vec<String> = (before.items.iter())
                    .map(|i| match i {
                        VItem::Inst(inst) => format!("  {inst}"),
                        other => format!("{other:?}"),
                    })
                    .collect();
                format!("case {case} step {step}, {what} of:\n{}", text.join("\n"))
            };
            let blocks_before = cfg.blocks.len();
            let (want_positions, want) = fresh(&func);

            let renumbered = cfg.relayout(&func.items, &mut positions);
            if want.blocks.len() != blocks_before {
                assert!(!renumbered, "a changed block count was kept, {}", ctx());
            }
            let expect_kept = same_gaps && !has_duplicate_label(&func);
            assert_eq!(renumbered, expect_kept, "relayout's verdict, {}", ctx());
            if renumbered {
                kept += 1;
                assert_eq!(positions, want_positions, "positions, {}", ctx());
                assert_eq!(cfg, want, "CFG, {}", ctx());
                let want_dom = DomTree::build(&want);
                assert_eq!(dom, want_dom, "dominator tree, {}", ctx());
                let want_forest = LoopForest::build_with_dom(&want, &want_dom);
                assert_eq!(forest, want_forest, "loop forest, {}", ctx());
            } else {
                rebuilt += 1;
                (positions, cfg) = (want_positions, want);
                dom = DomTree::build(&cfg);
                forest = LoopForest::build_with_dom(&cfg, &dom);
            }
        }
    }
    // Both outcomes are exercised, the kept one far more often.
    assert!(
        kept > 2 * rebuilt && rebuilt > 100,
        "kept {kept}, rebuilt {rebuilt}"
    );
}
