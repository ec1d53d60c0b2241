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

use std::collections::{BTreeSet, HashMap};

use patmos_lir::{FuncCode, Function, VItem, VReg};

use crate::util::{self, as_copy};

/// Coalesces `def src; copy dst = src` pairs with a single-use `src`.
fn coalesce(func: &mut Function<VItem>) -> bool {
    // Total use counts per virtual register in this function; a
    // guarded definition reads its destination (merge semantics).
    let mut use_count: HashMap<VReg, usize> = HashMap::new();
    for item in &func.items {
        let VItem::Inst(inst) = item else { continue };
        for u in inst.op.uses().into_iter().flatten() {
            *use_count.entry(u).or_insert(0) += 1;
        }
        if !inst.guard.is_always() {
            if let Some(d) = inst.op.def() {
                *use_count.entry(d).or_insert(0) += 1;
            }
        }
    }
    let mut marked: BTreeSet<usize> = BTreeSet::new();
    for block in util::blocks(func) {
        for pair in block.windows(2) {
            let (i, j) = (pair[0], pair[1]);
            if marked.contains(&i) || marked.contains(&j) {
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
                || use_count.get(&src).copied().unwrap_or(0) != 1
            {
                continue;
            }
            let VItem::Inst(def_inst) = &mut func.items[i] else {
                unreachable!();
            };
            assert!(def_inst.op.set_def(dst), "pure defs are redirectable");
            marked.insert(j);
        }
    }
    let changed = !marked.is_empty();
    util::remove_marked(&mut func.items, &marked);
    changed
}

/// Forwards copy sources into later uses; drops no-op copies.
fn forward(func: &mut Function<VItem>) -> bool {
    let mut changed = false;
    let mut marked: BTreeSet<usize> = BTreeSet::new();
    for block in util::blocks(func) {
        // dst -> fully resolved source.
        let mut copies: HashMap<VReg, VReg> = HashMap::new();
        for idx in block {
            let VItem::Inst(inst) = &mut func.items[idx] else {
                unreachable!("blocks contain instruction indices only");
            };
            inst.op.map_uses(|u| {
                if let Some(&s) = copies.get(&u) {
                    changed = true;
                    s
                } else {
                    u
                }
            });
            if inst.guard.is_always() {
                if let Some((dst, src)) = as_copy(&inst.op) {
                    if dst == src {
                        marked.insert(idx);
                        changed = true;
                    } else {
                        copies.retain(|_, s| *s != dst);
                        copies.insert(dst, src);
                    }
                    continue;
                }
            }
            if let Some(d) = inst.op.def() {
                copies.remove(&d);
                copies.retain(|_, s| *s != d);
            }
        }
    }
    util::remove_marked(&mut func.items, &marked);
    changed
}

/// Runs coalescing then forwarding.
pub(crate) fn run(func: &mut Function<VItem>) -> bool {
    let coalesced = coalesce(func);
    forward(func) || coalesced
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
pub(crate) fn run_global(func: &mut Function<VItem>) -> bool {
    let code = FuncCode::new(func);
    // Definition counts; a guarded def still counts (the merge makes
    // the register multi-valued).
    let mut defs: HashMap<VReg, (usize, bool)> = HashMap::new();
    for (_, inst) in &code.insts {
        if let Some(d) = inst.op.def() {
            let e = defs.entry(d).or_insert((0, true));
            e.0 += 1;
            e.1 &= inst.guard.is_always();
        }
    }
    let single_always = |v: VReg| v.is_zero() || defs.get(&v) == Some(&(1, true));

    let mut rewrite: HashMap<VReg, VReg> = HashMap::new();
    for (_, inst) in &code.insts {
        if !inst.guard.is_always() {
            continue;
        }
        if let Some((dst, src)) = as_copy(&inst.op) {
            if dst != src && defs.get(&dst) == Some(&(1, true)) && single_always(src) {
                rewrite.insert(dst, src);
            }
        }
    }
    if rewrite.is_empty() {
        return false;
    }
    // Resolve chains (`c → b → a` becomes `c → a`).
    let resolve = |mut v: VReg| {
        let mut hops = 0;
        while let Some(&next) = rewrite.get(&v) {
            v = next;
            hops += 1;
            if hops > rewrite.len() {
                break; // self-referential degenerate chain
            }
        }
        v
    };
    let resolved: HashMap<VReg, VReg> = rewrite.keys().map(|&d| (d, resolve(d))).collect();

    let mut changed = false;
    for item in &mut func.items {
        let VItem::Inst(inst) = item else { continue };
        // Keep the defining copies themselves intact: rewriting a
        // copy's source is fine, but `dst = dst` must not appear.
        let own_def = inst.op.def();
        inst.op.map_uses(|u| {
            let r = resolved.get(&u).copied().unwrap_or(u);
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
    use patmos_isa::AluOp;
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
            VItem::Inst(VInst::always(VOp::AluI {
                op: AluOp::Add,
                rd: v(9),
                rs1: v(1),
                imm: 1,
            })),
            VItem::Inst(VInst::always(util::copy_op(v(1), v(9)))),
            VItem::Inst(VInst::always(VOp::Halt)),
        ]);
        assert!(run(&mut m));
        assert_eq!(m.items.len(), 2);
        assert!(matches!(
            &m.items[0],
            VItem::Inst(VInst {
                op: VOp::AluI { rd, rs1, imm: 1, .. },
                ..
            }) if *rd == v(1) && *rs1 == v(1)
        ));
    }

    #[test]
    fn multi_use_temporary_is_not_coalesced() {
        let mut m = func(vec![
            VItem::Inst(VInst::always(VOp::AluI {
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
            VItem::Inst(VInst::always(VOp::Halt)),
        ]);
        run(&mut m);
        // v9 has two uses; the defining add must still target v9.
        assert!(matches!(
            &m.items[0],
            VItem::Inst(VInst {
                op: VOp::AluI { rd, .. },
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
            VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(1), imm: 9 })),
            VItem::Inst(VInst::always(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R4,
                src: v(2),
            })),
            VItem::Inst(VInst::always(VOp::Halt)),
        ]);
        assert!(run(&mut m));
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
            VItem::Inst(VInst::always(VOp::LoadImmLow { rd: v(9), imm: 7 })),
            VItem::Inst(VInst::new(guard, util::copy_op(v(1), v(9)))),
            VItem::Inst(VInst::always(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R1,
                src: v(1),
            })),
            VItem::Inst(VInst::always(VOp::Halt)),
        ]);
        run(&mut m);
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
