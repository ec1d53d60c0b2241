//! Loop-invariant code motion (an `opt_level` 2 pass).
//!
//! For every natural loop of the [`patmos_lir::LoopForest`], pure
//! unconditional instructions whose operands are loop-invariant move to
//! the loop's *preheader* — the fall-through position immediately
//! before the `.loopbound`/label items of the header. The generator
//! re-emits symbol loads (`lil`), constants and address arithmetic on
//! every iteration; one hoist pays for the whole trip count.
//!
//! Hoisting an instruction `d = op(uses)` out of loop `L` requires:
//!
//! * the guard is *always* and the op is pure — but not `mfs` (reads
//!   the multiplier state) and not an ABI copy (reads physical state);
//! * a load additionally requires that `L` contains no call and no
//!   store to the same memory area;
//! * `d` has exactly this one definition in `L` and is **not live into
//!   the header** — otherwise a pre-loop value (reachable on the
//!   zero-trip path or read before the def) would be clobbered;
//! * every use is defined outside `L`, or by an instruction already
//!   hoisted in this pass (the invariant closure);
//! * the header's label is branched to only by the loop's own back
//!   edges, so the spot before the header *is* a preheader.
//!
//! Inner loops are processed first; the fixpoint driver re-runs the
//! pass, so an instruction hoisted into an inner preheader (still
//! inside the outer loop) migrates further out on the next round if it
//! is invariant there too. All decisions are structural — opcode,
//! operand identity, dataflow — never literal values, so the pass is
//! part of the shape-stable (single-path) pipeline.

use patmos_isa::Op;
use patmos_lir::{BlockLiveness, FuncCode, Function, LoopForest, VCfg, VItem, VOp, VReg, VRegSet};

use crate::cache::Analyses;
use crate::util::{ByReg, Scratch};

/// One loop's planned hoists: the items move, in dependency order, to
/// just before `insert_at`. The header label rides along for the
/// remark.
struct Hoist {
    insert_at: usize,
    items: Vec<usize>,
    label: String,
}

/// The header's own leading items — label and attached `.loopbound` —
/// via the shared [`patmos_lir::header_lead`] walk. Its `start` is the
/// preheader insertion point: hoisted code must land *below* any
/// earlier label in the run, which is a live side entry (the join
/// label of a branching `if` right before the loop).
fn header_lead<'a>(func: &FuncCode<'a>, cfg: &VCfg, header: usize) -> patmos_lir::HeaderLead<'a> {
    patmos_lir::header_lead(func.items, func.insts[cfg.blocks[header].first])
}

/// The blocks that end in a branch, as `(position, block)` of the
/// branch, sorted by target label: the branch sources of every label. A
/// branch always ends its block, so the block's last position is the
/// branch.
fn branch_sources(func: &FuncCode<'_>, cfg: &VCfg, sources: &mut Vec<(usize, usize)>) {
    sources.clear();
    sources.extend((cfg.blocks.iter().enumerate()).filter_map(|(b, block)| {
        matches!(func.inst(block.end - 1).op, VOp::BrLabel(_)).then_some((block.end - 1, b))
    }));
    sources.sort_unstable_by(|&(p, b), &(q, c)| (target(func, p), b).cmp(&(target(func, q), c)));
}

/// The label the branch at position `pos` targets.
fn target<'a>(func: &FuncCode<'a>, pos: usize) -> &'a str {
    match &func.inst(pos).op {
        VOp::BrLabel(label) => label,
        _ => unreachable!("branch sources are branches"),
    }
}

/// The planner's tables, kept in [`crate::util::Scratch`] across
/// applications.
#[derive(Default)]
pub(crate) struct Tables {
    /// The branch sources, from [`branch_sources`].
    branches: Vec<(usize, usize)>,
    /// Item indices already claimed by an inner loop's hoist.
    taken: Vec<bool>,
    /// Per loop: definitions per register, the positions marked
    /// invariant, and their defs.
    def_count: ByReg<u8>,
    marked: Vec<bool>,
    marked_defs: VRegSet,
    /// Loop indices, innermost first.
    order: Vec<usize>,
}

impl Tables {
    /// Tables with room for the registers `0..regs`.
    pub(crate) fn with_regs(regs: usize) -> Tables {
        Tables {
            def_count: ByReg::with_regs(regs),
            ..Tables::default()
        }
    }
}

/// A memory area as a bit of a set of areas.
fn area_bit(area: patmos_isa::MemArea) -> u8 {
    1 << area as u8
}

fn plan_function(
    func: &FuncCode<'_>,
    cfg: &VCfg,
    forest: &LoopForest,
    liveness: &BlockLiveness,
    tables: &mut Tables,
    hoists: &mut Vec<Hoist>,
) {
    let Tables {
        branches,
        taken,
        def_count,
        marked,
        marked_defs,
        order,
    } = tables;
    branch_sources(func, cfg, branches);
    taken.clear();
    taken.resize(func.items.len(), false);
    // Per-loop working sets, reset for each loop.
    marked.clear();
    marked.resize(func.insts.len(), false);

    // Innermost first: deepest loops claim their instructions before
    // the enclosing ones look.
    order.clear();
    order.extend(0..forest.loops.len());
    order.sort_by_key(|&i| std::cmp::Reverse(forest.loops[i].depth));

    for &li in order.iter() {
        let lp = &forest.loops[li];
        let Some(label) = header_lead(func, cfg, lp.header).label else {
            continue;
        };
        // Every branch to the header's own label must be one of the
        // loop's own back edges — otherwise the spot before the header
        // is not a preheader. (A branch to an earlier label of the
        // header's lead run is a side entry the insertion point below
        // already keeps clear of, so only this label counts — which CFG
        // edges alone could not tell apart.)
        let first = branches.partition_point(|&(p, _)| target(func, p) < label);
        let proper = branches[first..]
            .iter()
            .take_while(|&&(p, _)| target(func, p) == label)
            .all(|&(_, b)| lp.latches.contains(&b));
        if !proper {
            continue;
        }

        // Loop-wide facts: definition counts (saturating at 2: only
        // none, one and more matter), stored areas, calls.
        let positions = || {
            lp.blocks
                .iter()
                .flat_map(|&b| cfg.blocks[b].first..cfg.blocks[b].end)
        };
        def_count.clear();
        let mut store_areas = 0u8;
        let mut has_call = false;
        for pos in positions() {
            let inst = func.inst(pos);
            if let Some(d) = inst.op.def() {
                let count = def_count.slot(d);
                *count = (*count + 1).min(2);
            }
            match &inst.op {
                VOp::Machine(Op::Store { area, .. }) => store_areas |= area_bit(*area),
                VOp::CallFunc(_) => has_call = true,
                _ => {}
            }
        }
        let defs_of = |v: VReg| def_count.get(v);

        // Invariant closure.
        let mut any_marked = false;
        marked_defs.clear();
        loop {
            let mut grew = false;
            for pos in positions() {
                let (item_idx, inst) = (func.insts[pos], func.inst(pos));
                if taken[item_idx] || marked[pos] || !inst.guard.is_always() {
                    continue;
                }
                let hoistable_op = match &inst.op {
                    VOp::Machine(Op::Mfs { .. }) | VOp::CopyFromPhys { .. } => false,
                    VOp::Machine(Op::Load { area, .. }) => {
                        !has_call && store_areas & area_bit(*area) == 0
                    }
                    op => op.is_pure(),
                };
                if !hoistable_op {
                    continue;
                }
                let Some(d) = inst.op.def() else { continue };
                if defs_of(d) != 1 || liveness.live_in(lp.header).contains(d) {
                    continue;
                }
                let uses_ok = inst
                    .op
                    .uses()
                    .into_iter()
                    .flatten()
                    .all(|u| defs_of(u) == 0 || (defs_of(u) == 1 && marked_defs.contains(u)));
                if !uses_ok {
                    continue;
                }
                marked[pos] = true;
                marked_defs.insert(d);
                any_marked = true;
                grew = true;
            }
            if !grew {
                break;
            }
        }
        if !any_marked {
            continue;
        }

        // Emit in dependency order: an instruction waits until no
        // not-yet-emitted marked instruction still defines one of its
        // uses. Each marked def is the register's only def in the loop,
        // so emitting an instruction retires its def from the pending
        // set.
        let mut pending: Vec<usize> = positions().filter(|&p| marked[p]).collect();
        for &p in &pending {
            marked[p] = false;
        }
        let mut ordered: Vec<usize> = Vec::with_capacity(pending.len());
        while !pending.is_empty() {
            let ready = pending.iter().position(|&p| {
                let op = &func.inst(p).op;
                (op.uses().into_iter().flatten())
                    .all(|u| !marked_defs.contains(u) || op.def() == Some(u))
            });
            match ready {
                Some(i) => {
                    let p = pending.remove(i);
                    if let Some(d) = func.inst(p).op.def() {
                        marked_defs.remove(d);
                    }
                    ordered.push(p);
                }
                None => unreachable!("invariant closure has no def cycles"),
            }
        }

        let item_indices: Vec<usize> = ordered.iter().map(|&p| func.insts[p]).collect();
        for &i in &item_indices {
            taken[i] = true;
        }
        hoists.push(Hoist {
            insert_at: header_lead(func, cfg, lp.header).start,
            items: item_indices,
            label: label.to_string(),
        });
    }
}

/// Runs the pass over one function.
pub(crate) fn run(
    func: &mut Function<VItem>,
    cache: &mut Analyses,
    scratch: &mut Scratch,
    report: &mut crate::OptReport,
) -> bool {
    if cache.with_loops(func).forest().loops.is_empty() {
        return false;
    }
    let cached = cache.with_liveness(func);
    let mut hoists: Vec<Hoist> = Vec::new();
    plan_function(
        &FuncCode::new(func, cached.positions()),
        cached.cfg(),
        cached.forest(),
        cached.liveness(),
        &mut scratch.licm,
        &mut hoists,
    );
    if hoists.is_empty() {
        return false;
    }
    for h in &hoists {
        report.push_remark(patmos_lir::Remark {
            pass: "licm",
            function: func.name.clone(),
            site: Some(h.label.clone()),
            applied: true,
            message: format!(
                "hoisted {} loop-invariant instruction(s) into the preheader",
                h.items.len()
            ),
        });
    }

    // The hoisted items, by insertion point (hoists sharing one keep
    // their planning order), and a mask of the items that move. A moved
    // item is taken out of the function, a placeholder left in its
    // place.
    let mut insertions: Vec<(usize, Vec<VItem>)> = Vec::new();
    let mut moved = vec![false; func.items.len()];
    for h in &hoists {
        let placeholder = || VItem::LoopBound { min: 0, max: 0 };
        let items: Vec<VItem> = (h.items.iter())
            .map(|&i| std::mem::replace(&mut func.items[i], placeholder()))
            .collect();
        for &i in &h.items {
            moved[i] = true;
        }
        match insertions.iter_mut().find(|(at, _)| *at == h.insert_at) {
            Some((_, run)) => run.extend(items),
            None => insertions.push((h.insert_at, items)),
        }
    }
    insertions.sort_by_key(|&(at, _)| at);
    let mut insertions = insertions.into_iter().peekable();
    let mut out: Vec<VItem> = Vec::with_capacity(func.items.len());
    for (idx, item) in func.items.drain(..).enumerate() {
        if let Some((_, hoisted)) = insertions.next_if(|&(at, _)| at == idx) {
            out.extend(hoisted);
        }
        if !moved[idx] {
            out.push(item);
        }
    }
    func.items = out;
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::{AccessSize, AluOp, CmpOp, Guard, MemArea, Pred, Reg};
    use patmos_lir::{VInst, VItem, VOp};

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    fn inst(op: impl Into<VOp>) -> VItem {
        VItem::Inst(VInst::always(op))
    }

    /// `for (i = 0; i < 8; i++) { s += tab[i]; }` as the generator
    /// spells it: the `lil` base reload sits inside the loop.
    fn loop_with_invariant_base() -> Function<VItem> {
        Function::new(
            "main",
            vec![
                inst(Op::LoadImmLow { rd: v(1), imm: 0 }), // i
                inst(Op::LoadImmLow { rd: v(2), imm: 0 }), // s
                VItem::LoopBound { min: 1, max: 9 },
                VItem::Label("main_head1".into()),
                inst(Op::CmpI {
                    op: CmpOp::Lt,
                    pd: Pred::P6,
                    rs1: v(1),
                    imm: 8,
                }),
                VItem::Inst(VInst::new(
                    Guard::unless(Pred::P6),
                    VOp::BrLabel("main_exit2".into()),
                )),
                inst(VOp::LilSym {
                    rd: v(3),
                    sym: "tab".into(),
                }), // invariant
                inst(Op::AluI {
                    op: AluOp::Shl,
                    rd: v(4),
                    rs1: v(1),
                    imm: 2,
                }), // variant (uses i)
                inst(Op::AluR {
                    op: AluOp::Add,
                    rd: v(5),
                    rs1: v(3),
                    rs2: v(4),
                }),
                inst(Op::Load {
                    area: MemArea::Static,
                    size: AccessSize::Word,
                    rd: v(6),
                    ra: v(5),
                    offset: 0,
                }),
                inst(Op::AluR {
                    op: AluOp::Add,
                    rd: v(2),
                    rs1: v(2),
                    rs2: v(6),
                }),
                inst(Op::AluI {
                    op: AluOp::Add,
                    rd: v(1),
                    rs1: v(1),
                    imm: 1,
                }),
                inst(VOp::BrLabel("main_head1".into())),
                VItem::Label("main_exit2".into()),
                inst(VOp::CopyToPhys {
                    dst: Reg::R1,
                    src: v(2),
                }),
                inst(Op::Halt),
            ],
        )
    }

    #[test]
    fn invariant_symbol_load_is_hoisted_to_the_preheader() {
        let mut m = loop_with_invariant_base();
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default(),
            &mut crate::OptReport::default()
        ));
        // The lil must now precede the .loopbound.
        let lil_at = m
            .items
            .iter()
            .position(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::LilSym { .. },
                        ..
                    })
                )
            })
            .expect("lil survives");
        let bound_at = m
            .items
            .iter()
            .position(|i| matches!(i, VItem::LoopBound { .. }))
            .expect("bound survives");
        assert!(lil_at < bound_at, "{}", m.render());
        // Variant address math stays inside.
        let shl_at = m
            .items
            .iter()
            .position(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::Machine(Op::AluI { op: AluOp::Shl, .. }),
                        ..
                    })
                )
            })
            .expect("shl survives");
        assert!(shl_at > bound_at, "{}", m.render());
        // A second run finds nothing new.
        assert!(!run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default(),
            &mut crate::OptReport::default()
        ));
    }

    #[test]
    fn stores_in_the_loop_pin_same_area_loads() {
        let mut m = loop_with_invariant_base();
        // Add a store to the static area inside the loop (after the
        // accumulating add, before the increment).
        m.items.insert(
            11,
            inst(Op::Store {
                area: MemArea::Static,
                size: AccessSize::Word,
                ra: v(3),
                offset: 0,
                rs: v(2),
            }),
        );
        assert!(
            run(
                &mut m,
                &mut Analyses::default(),
                &mut Scratch::default(),
                &mut crate::OptReport::default()
            ),
            "the lil still hoists"
        );
        let load_at = m
            .items
            .iter()
            .position(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::Machine(Op::Load { .. }),
                        ..
                    })
                )
            })
            .expect("load survives");
        let bound_at = m
            .items
            .iter()
            .position(|i| matches!(i, VItem::LoopBound { .. }))
            .expect("bound survives");
        assert!(load_at > bound_at, "load must stay inside:\n{}", m.render());
    }

    #[test]
    fn hoisted_code_lands_below_a_side_entry_label() {
        // A branching if's join label sits directly before the loop's
        // `.loopbound`/label run; the `(!p6) br` into it is a live side
        // entry. Hoisted code must land *after* that label, or the
        // taken path skips it (a real miscompile this reproduces).
        let mut m = loop_with_invariant_base();
        m.items.splice(
            2..2,
            vec![
                VItem::Inst(VInst::always(Op::CmpI {
                    op: CmpOp::Eq,
                    pd: Pred::P6,
                    rs1: v(9),
                    imm: 1,
                })),
                VItem::Inst(VInst::new(
                    Guard::unless(Pred::P6),
                    VOp::BrLabel("main_join9".into()),
                )),
                inst(Op::AluI {
                    op: AluOp::Add,
                    rd: v(9),
                    rs1: v(9),
                    imm: 7,
                }),
                VItem::Label("main_join9".into()),
            ],
        );
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default(),
            &mut crate::OptReport::default()
        ));
        let join_at = m
            .items
            .iter()
            .position(|i| matches!(i, VItem::Label(l) if l == "main_join9"))
            .expect("join label survives");
        let lil_at = m
            .items
            .iter()
            .position(|i| {
                matches!(
                    i,
                    VItem::Inst(VInst {
                        op: VOp::LilSym { .. },
                        ..
                    })
                )
            })
            .expect("lil survives");
        let bound_at = m
            .items
            .iter()
            .position(|i| matches!(i, VItem::LoopBound { .. }))
            .expect("bound survives");
        assert!(
            join_at < lil_at && lil_at < bound_at,
            "hoist must sit between the side entry and the loop:\n{}",
            m.render()
        );
    }

    #[test]
    fn live_in_register_is_never_clobbered() {
        // v7 is read at the loop head before being rewritten inside:
        // hoisting its (otherwise invariant-looking) redefinition would
        // clobber the pre-loop value.
        let mut m = Function::new(
            "main",
            vec![
                inst(Op::LoadImmLow { rd: v(7), imm: 3 }),
                inst(Op::LoadImmLow { rd: v(1), imm: 0 }),
                VItem::Label("main_head1".into()),
                inst(Op::AluR {
                    op: AluOp::Add,
                    rd: v(1),
                    rs1: v(1),
                    rs2: v(7),
                }),
                inst(Op::LoadImmLow { rd: v(7), imm: 9 }),
                inst(Op::CmpI {
                    op: CmpOp::Lt,
                    pd: Pred::P6,
                    rs1: v(1),
                    imm: 40,
                }),
                VItem::Inst(VInst::new(
                    Guard::when(Pred::P6),
                    VOp::BrLabel("main_head1".into()),
                )),
                inst(VOp::CopyToPhys {
                    dst: Reg::R1,
                    src: v(1),
                }),
                inst(Op::Halt),
            ],
        );
        let before = m.render();
        assert!(
            !run(
                &mut m,
                &mut Analyses::default(),
                &mut Scratch::default(),
                &mut crate::OptReport::default()
            ),
            "nothing may hoist:\n{before}"
        );
    }
}
