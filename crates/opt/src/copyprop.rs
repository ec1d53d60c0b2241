//! Copy propagation and copy coalescing (block-local).
//!
//! Two cooperating rewrites over the canonical copy `add rd = rs, r0`:
//!
//! * **coalescing** — when a pure definition is immediately followed by
//!   an unconditional copy of its result, and the copy is that result's
//!   only use anywhere in the function, the definition writes the copy's
//!   destination directly and the copy disappears. This deletes the
//!   temporary-then-assign pattern the tree-walking code generator emits
//!   for every unguarded assignment;
//! * **forwarding** — uses of a copied register are rewritten to the
//!   copy's source while both stay unredefined in the block, turning the
//!   copy dead for the DCE pass.
//!
//! Guarded copies take part in neither (a guarded write merges two
//! values), but operands of guarded instructions are still forwarded —
//! the source register holds the same value whether or not the guarded
//! instruction is annulled.

use patmos_lir::{Function, VItem, VReg, VRegSet};

use crate::cache::{Analyses, Edits};
use crate::util::{self, as_copy, ByReg, Scratch};

/// The passes' tables, kept in [`Scratch`] across applications.
#[derive(Default)]
pub(crate) struct Tables {
    /// Uses per register (coalescing).
    use_count: ByReg<u32>,
    /// The copies in force (forwarding).
    copies: Copies,
    /// Definitions per register (global forwarding).
    defs: ByReg<Defs>,
    /// The copy each single-definition register is, and its resolved
    /// source (global forwarding).
    rewrite: ByReg<Option<VReg>>,
    resolved: ByReg<Option<VReg>>,
    /// The registers `rewrite` maps.
    rewritten: Vec<VReg>,
}

impl Tables {
    /// Tables with room for the registers `0..regs`.
    pub(crate) fn with_regs(regs: usize) -> Tables {
        Tables {
            use_count: ByReg::with_regs(regs),
            copies: Copies {
                source: ByReg::with_regs(regs),
                ..Copies::default()
            },
            defs: ByReg::with_regs(regs),
            rewrite: ByReg::with_regs(regs),
            resolved: ByReg::with_regs(regs),
            rewritten: Vec::new(),
        }
    }
}

/// Coalesces `def src; copy dst = src` pairs with a single-use `src`.
fn coalesce(
    func: &mut Function<VItem>,
    cache: &mut Analyses,
    use_count: &mut ByReg<u32>,
    marked: &mut Vec<usize>,
) -> bool {
    // Total use counts per virtual register in this function; a
    // guarded definition reads its destination (merge semantics).
    use_count.clear();
    for item in &func.items {
        let VItem::Inst(inst) = item else { continue };
        for u in inst.op.uses().into_iter().flatten() {
            *use_count.slot(u) += 1;
        }
        if !inst.guard.is_always() {
            if let Some(d) = inst.op.def() {
                *use_count.slot(d) += 1;
            }
        }
    }
    // Copy item indices to delete, in increasing order: a window's
    // copy can only be marked as the last entry.
    for block in cache.with_cfg(func).blocks() {
        for pair in block.windows(2) {
            let (i, j) = (pair[0], pair[1]);
            if marked.last() == Some(&i) {
                continue;
            }
            let (VItem::Inst(def_inst), VItem::Inst(copy_inst)) = (&func.items[i], &func.items[j])
            else {
                unreachable!("blocks contain instruction indices only");
            };
            let Some((dst, src)) = as_copy(&copy_inst.op) else {
                continue;
            };
            if !copy_inst.guard.is_always()
                || !def_inst.guard.is_always()
                || src.is_zero()
                || dst == src
                || def_inst.op.def() != Some(src)
                || !def_inst.op.is_pure()
                || use_count.get(src) != 1
            {
                continue;
            }
            let VItem::Inst(def_inst) = &mut func.items[i] else {
                unreachable!();
            };
            assert!(def_inst.op.set_def(dst), "pure defs are redirectable");
            marked.push(j);
        }
    }
    let changed = !marked.is_empty();
    util::remove_marked(&mut func.items, marked);
    changed
}

/// The copies in force at one point of a block walk: `dst` holds the
/// same value as its fully resolved source. A register table, plus a
/// set of the registers some entry may resolve to, so a redefinition
/// that is nobody's source costs no scan.
#[derive(Default)]
struct Copies {
    source: ByReg<Option<VReg>>,
    /// Every register given an entry in this block (some since
    /// dropped).
    dsts: Vec<VReg>,
    /// Every register some entry may resolve to.
    sources: VRegSet,
}

impl Copies {
    /// Forgets every copy (at a block boundary).
    fn clear(&mut self) {
        for dst in self.dsts.drain(..) {
            *self.source.slot(dst) = None;
        }
        self.sources.clear();
    }

    /// `d` is redefined: forget its own copy and every copy of it.
    fn kill(&mut self, d: VReg) {
        if self.source.get(d).is_some() {
            *self.source.slot(d) = None;
        }
        if self.sources.contains(d) {
            self.sources.remove(d);
            for &dst in &self.dsts {
                if self.source.get(dst) == Some(d) {
                    *self.source.slot(dst) = None;
                }
            }
        }
    }

    fn insert(&mut self, dst: VReg, src: VReg) {
        *self.source.slot(dst) = Some(src);
        self.dsts.push(dst);
        self.sources.insert(src);
    }
}

/// Forwards copy sources into later uses; drops no-op copies.
fn forward(
    func: &mut Function<VItem>,
    cache: &mut Analyses,
    copies: &mut Copies,
    marked: &mut Vec<usize>,
) -> bool {
    let mut changed = false;
    for block in cache.with_cfg(func).blocks() {
        copies.clear();
        for &idx in block {
            let VItem::Inst(inst) = &mut func.items[idx] else {
                unreachable!("blocks contain instruction indices only");
            };
            inst.op.map_uses(|u| {
                if let Some(s) = copies.source.get(u) {
                    changed = true;
                    s
                } else {
                    u
                }
            });
            if inst.guard.is_always() {
                if let Some((dst, src)) = as_copy(&inst.op) {
                    if dst == src {
                        marked.push(idx);
                        changed = true;
                    } else {
                        copies.kill(dst);
                        copies.insert(dst, src);
                    }
                    continue;
                }
            }
            if let Some(d) = inst.op.def() {
                copies.kill(d);
            }
        }
    }
    util::remove_marked(&mut func.items, marked);
    changed
}

/// Runs coalescing then forwarding. Coalescing removes copies, so the
/// forward walk then needs the function's renumbered positions.
pub(crate) fn run(func: &mut Function<VItem>, cache: &mut Analyses, scratch: &mut Scratch) -> bool {
    let (tables, marked) = (&mut scratch.copyprop, &mut scratch.marked);
    let coalesced = coalesce(func, cache, &mut tables.use_count, marked);
    if coalesced {
        cache.invalidate(func, Edits::Instructions);
    }
    forward(func, cache, &mut tables.copies, marked) || coalesced
}

/// A register's definition count (saturating at 2: only "exactly one"
/// matters) and whether every def is unguarded; a guarded def still
/// counts (the merge makes the register multi-valued).
#[derive(Clone, Copy, Default, PartialEq)]
struct Defs {
    count: u8,
    guarded: bool,
}

/// Function-global copy forwarding over *single-definition* registers
/// (an `opt_level` 2 pass).
///
/// The block-local [`forward`] cannot chase a copy whose uses live in
/// another block — exactly what LICM leaves behind when it hoists a
/// CSE-made copy into a preheader while the uses stay in the loop.
/// When `dst = src` is the **only** definition of `dst` in the
/// function, and `src` is the zero alias or itself defined exactly
/// once and unconditionally, every use of `dst` anywhere reads the one
/// value `src` ever holds, so the rewrite `dst → src` is sound in
/// every block. Copy chains resolve transitively; the dead copies are
/// left for DCE.
pub(crate) fn run_global(func: &mut Function<VItem>, scratch: &mut Scratch) -> bool {
    let Tables {
        defs,
        rewrite,
        resolved,
        rewritten,
        ..
    } = &mut scratch.copyprop;
    let insts = || {
        func.items.iter().filter_map(|item| match item {
            VItem::Inst(inst) => Some(inst),
            _ => None,
        })
    };
    defs.clear();
    for inst in insts() {
        if let Some(d) = inst.op.def() {
            let e = defs.slot(d);
            e.count = (e.count + 1).min(2);
            e.guarded |= !inst.guard.is_always();
        }
    }
    let once = Defs {
        count: 1,
        guarded: false,
    };
    let single_always = |v: VReg| v.is_zero() || defs.get(v) == once;

    rewrite.clear();
    rewritten.clear();
    for inst in insts() {
        if !inst.guard.is_always() {
            continue;
        }
        if let Some((dst, src)) = as_copy(&inst.op) {
            if dst != src && defs.get(dst) == once && single_always(src) {
                // `dst` has one def, so it is recorded once.
                *rewrite.slot(dst) = Some(src);
                rewritten.push(dst);
            }
        }
    }
    if rewritten.is_empty() {
        return false;
    }
    // Resolve chains (`c → b → a` becomes `c → a`).
    let resolve = |mut v: VReg| {
        let mut hops = 0;
        while let Some(next) = rewrite.get(v) {
            v = next;
            hops += 1;
            if hops > rewritten.len() {
                break; // self-referential degenerate chain
            }
        }
        v
    };
    resolved.clear();
    for &d in rewritten.iter() {
        *resolved.slot(d) = Some(resolve(d));
    }

    let mut changed = false;
    for item in &mut func.items {
        let VItem::Inst(inst) = item else { continue };
        // Keep the defining copies themselves intact: rewriting a
        // copy's source is fine, but `dst = dst` must not appear.
        let own_def = inst.op.def();
        inst.op.map_uses(|u| {
            let r = resolved.get(u).unwrap_or(u);
            if r != u && Some(r) != own_def {
                changed = true;
                r
            } else {
                u
            }
        });
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use patmos_isa::{AluOp, Op};
    use patmos_lir::{VInst, VOp};

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    fn func(items: Vec<VItem>) -> Function<VItem> {
        Function::new("main", items)
    }

    #[test]
    fn coalesces_single_use_temporary() {
        // t = s + 1; s = t  ==>  s = s + 1
        let mut m = func(vec![
            VItem::Inst(VInst::always(Op::AluI {
                op: AluOp::Add,
                rd: v(9),
                rs1: v(1),
                imm: 1,
            })),
            VItem::Inst(VInst::always(util::copy_op(v(1), v(9)))),
            VItem::Inst(VInst::always(Op::Halt)),
        ]);
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
        assert_eq!(m.items.len(), 2);
        assert!(matches!(
            &m.items[0],
            VItem::Inst(VInst {
                op: VOp::Machine(Op::AluI { rd, rs1, imm: 1, .. }),
                ..
            }) if *rd == v(1) && *rs1 == v(1)
        ));
    }

    #[test]
    fn multi_use_temporary_is_not_coalesced() {
        let mut m = func(vec![
            VItem::Inst(VInst::always(Op::AluI {
                op: AluOp::Add,
                rd: v(9),
                rs1: v(1),
                imm: 1,
            })),
            VItem::Inst(VInst::always(util::copy_op(v(1), v(9)))),
            VItem::Inst(VInst::always(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R1,
                src: v(9),
            })),
            VItem::Inst(VInst::always(Op::Halt)),
        ]);
        run(&mut m, &mut Analyses::default(), &mut Scratch::default());
        // v9 has two uses; the defining add must still target v9.
        assert!(matches!(
            &m.items[0],
            VItem::Inst(VInst {
                op: VOp::Machine(Op::AluI { rd, .. }),
                ..
            }) if *rd == v(9)
        ));
    }

    #[test]
    fn forwards_through_copies_until_redefinition() {
        let mut m = func(vec![
            VItem::Inst(VInst::always(util::copy_op(v(2), v(1)))),
            VItem::Inst(VInst::always(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R3,
                src: v(2),
            })),
            VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(1), imm: 9 })),
            VItem::Inst(VInst::always(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R4,
                src: v(2),
            })),
            VItem::Inst(VInst::always(Op::Halt)),
        ]);
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
        let src_of = |idx: usize| match &m.items[idx] {
            VItem::Inst(VInst {
                op: VOp::CopyToPhys { src, .. },
                ..
            }) => *src,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(src_of(1), v(1), "forwarded before the redefinition");
        assert_eq!(src_of(3), v(2), "not forwarded past the redefinition");
    }

    #[test]
    fn guarded_copy_is_left_alone() {
        let guard = patmos_isa::Guard::when(patmos_isa::Pred::P1);
        let mut m = func(vec![
            VItem::Inst(VInst::always(Op::LoadImmLow { rd: v(9), imm: 7 })),
            VItem::Inst(VInst::new(guard, util::copy_op(v(1), v(9)))),
            VItem::Inst(VInst::always(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R1,
                src: v(1),
            })),
            VItem::Inst(VInst::always(Op::Halt)),
        ]);
        run(&mut m, &mut Analyses::default(), &mut Scratch::default());
        // The guarded merge copy must survive, and v1's use must not be
        // rewritten to v9.
        assert_eq!(m.items.len(), 4);
        assert!(matches!(
            &m.items[2],
            VItem::Inst(VInst {
                op: VOp::CopyToPhys { src, .. },
                ..
            }) if *src == v(1)
        ));
    }
}
