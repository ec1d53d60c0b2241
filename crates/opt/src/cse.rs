//! Common-subexpression elimination (block-local, with store-to-load
//! forwarding).
//!
//! Within a basic block, pure computations — ALU results, immediate
//! loads, symbol addresses, and memory loads — are numbered by the
//! expression they compute; a later instruction computing the same
//! expression is replaced with the canonical copy from the first
//! result. The big win is the repeated address arithmetic of array
//! accesses (`lil base; shl scaled; add addr; load`), which the
//! tree-walking code generator re-emits for every subscript.
//!
//! Loads are invalidated conservatively by any store or call. A
//! word-sized store makes the stored value available to a matching
//! later load (store-to-load forwarding); sub-word stores do not (the
//! loaded value would be truncated).

use patmos_isa::{AccessSize, AluOp, MemArea};
use patmos_lir::{Function, VItem, VOp, VReg};

use crate::util::{self, commutative, copy_op};
use std::collections::HashMap;

/// A pure expression over current register values.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Alu(AluOp, VReg, VReg),
    AluImm(AluOp, VReg, i16),
    Imm(u32),
    Sym(String),
    Load(MemArea, AccessSize, VReg, i16),
}

impl Key {
    /// Whether the expression reads register `d`.
    fn reads(&self, d: VReg) -> bool {
        match *self {
            Key::Alu(_, a, b) => a == d || b == d,
            Key::AluImm(_, a, _) => a == d,
            Key::Load(_, _, a, _) => a == d,
            Key::Imm(_) | Key::Sym(_) => false,
        }
    }

    /// The expression computed by `op`, if it is CSE-able. When
    /// `imm_keys` is false, expressions embedding an immediate are not
    /// numbered: matching them makes code *shape* depend on literal
    /// *values*, which single-path mode forbids (two compilations
    /// differing only in a constant must emit the same instruction
    /// sequence).
    fn of(op: &VOp, imm_keys: bool) -> Option<Key> {
        match op {
            VOp::AluR {
                op,
                rd: _,
                rs1,
                rs2,
            } => {
                if *op == AluOp::Add && rs2.is_zero() {
                    return None; // copies belong to copy-prop
                }
                let (a, b) = if commutative(*op) && rs2.id() < rs1.id() {
                    (*rs2, *rs1)
                } else {
                    (*rs1, *rs2)
                };
                Some(Key::Alu(*op, a, b))
            }
            VOp::AluI { op, rs1, imm, .. } if imm_keys => Some(Key::AluImm(*op, *rs1, *imm)),
            VOp::LoadImmLow { imm, .. } if imm_keys => Some(Key::Imm(*imm as i16 as i32 as u32)),
            VOp::LoadImm32 { imm, .. } if imm_keys => Some(Key::Imm(*imm)),
            VOp::LilSym { sym, .. } => Some(Key::Sym(sym.clone())),
            VOp::Load {
                area,
                size,
                ra,
                offset,
                ..
            } => Some(Key::Load(*area, *size, *ra, *offset)),
            _ => None,
        }
    }
}

struct Avail {
    map: HashMap<Key, VReg>,
}

impl Avail {
    fn invalidate_reg(&mut self, d: VReg) {
        self.map.retain(|k, v| *v != d && !k.reads(d));
    }

    fn invalidate_loads(&mut self) {
        self.map.retain(|k, _| !matches!(k, Key::Load(..)));
    }
}

/// Runs the pass over every block of one function.
pub(crate) fn run(func: &mut Function<VItem>) -> bool {
    run_with(func, true)
}

/// The shape-stable variant: no immediate-valued expression keys.
pub(crate) fn run_shape_stable(func: &mut Function<VItem>) -> bool {
    run_with(func, false)
}

fn run_with(func: &mut Function<VItem>, imm_keys: bool) -> bool {
    let mut changed = false;
    for block in util::blocks(func) {
        let mut avail = Avail {
            map: HashMap::new(),
        };
        for idx in block {
            let VItem::Inst(inst) = &mut func.items[idx] else {
                unreachable!("blocks contain instruction indices only");
            };
            match &inst.op {
                VOp::Store {
                    area,
                    size,
                    ra,
                    offset,
                    rs,
                } => {
                    // The store may overwrite any tracked address.
                    let (area, size, ra, offset, rs) = (*area, *size, *ra, *offset, *rs);
                    avail.invalidate_loads();
                    if inst.guard.is_always() && size == AccessSize::Word && !rs.is_zero() {
                        avail.map.insert(Key::Load(area, size, ra, offset), rs);
                    }
                    continue;
                }
                VOp::CallFunc(_) => {
                    // The callee may store anywhere.
                    avail.invalidate_loads();
                    continue;
                }
                _ => {}
            }
            let Some(d) = inst.op.def() else { continue };
            if !inst.guard.is_always() {
                avail.invalidate_reg(d);
                continue;
            }
            let key = Key::of(&inst.op, imm_keys);
            match key {
                Some(key) => {
                    if let Some(&w) = avail.map.get(&key) {
                        if w != d {
                            inst.op = copy_op(d, w);
                            changed = true;
                        }
                        avail.invalidate_reg(d);
                        // The value stays available in `w` (w ≠ d is
                        // guaranteed: entries mapping to d died when
                        // d was redefined) — unless the expression
                        // itself read the register just overwritten.
                        if !key.reads(d) {
                            avail.map.insert(key, w);
                        }
                    } else {
                        avail.invalidate_reg(d);
                        if !key.reads(d) {
                            avail.map.insert(key, d);
                        }
                    }
                }
                None => avail.invalidate_reg(d),
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::as_copy;
    use patmos_lir::VInst;

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    fn func(items: Vec<VItem>) -> Function<VItem> {
        Function::new("main", items)
    }

    fn addr_calc(base: u32, scaled: u32, addr: u32, idx: u32) -> Vec<VItem> {
        vec![
            VItem::Inst(VInst::always(VOp::LilSym {
                rd: v(base),
                sym: "a".into(),
            })),
            VItem::Inst(VInst::always(VOp::AluI {
                op: AluOp::Shl,
                rd: v(scaled),
                rs1: v(idx),
                imm: 2,
            })),
            VItem::Inst(VInst::always(VOp::AluR {
                op: AluOp::Add,
                rd: v(addr),
                rs1: v(base),
                rs2: v(scaled),
            })),
        ]
    }

    #[test]
    fn repeated_address_arithmetic_collapses_to_copies() {
        let mut items = addr_calc(2, 3, 4, 1);
        items.extend(addr_calc(5, 6, 7, 1));
        items.push(VItem::Inst(VInst::always(VOp::Halt)));
        let mut m = func(items);
        assert!(run(&mut m));
        // The second lil/shl become copies immediately; the dependent
        // add follows once copy-prop has forwarded them (next round).
        for idx in [3, 4] {
            let VItem::Inst(inst) = &m.items[idx] else {
                panic!()
            };
            assert!(
                as_copy(&inst.op).is_some(),
                "item {idx} should be a copy: {inst}"
            );
        }
        crate::copyprop::run(&mut m);
        assert!(run(&mut m), "second round collapses the dependent add");
        let VItem::Inst(inst) = &m.items[5] else {
            panic!()
        };
        assert!(as_copy(&inst.op).is_some(), "{inst}");
    }

    #[test]
    fn store_invalidates_loads_and_forwards_its_value() {
        let load = |rd: u32| {
            VItem::Inst(VInst::always(VOp::Load {
                area: MemArea::Static,
                size: AccessSize::Word,
                rd: v(rd),
                ra: v(1),
                offset: 0,
            }))
        };
        let mut m = func(vec![
            load(2),
            VItem::Inst(VInst::always(VOp::Store {
                area: MemArea::Static,
                size: AccessSize::Word,
                ra: v(1),
                offset: 0,
                rs: v(3),
            })),
            load(4),
            VItem::Inst(VInst::always(VOp::Halt)),
        ]);
        assert!(run(&mut m));
        // The reload after the store forwards the stored register.
        let VItem::Inst(inst) = &m.items[2] else {
            panic!()
        };
        assert_eq!(as_copy(&inst.op), Some((v(4), v(3))));
    }

    #[test]
    fn redefined_operand_kills_the_expression() {
        let mut m = func(vec![
            VItem::Inst(VInst::always(VOp::AluI {
                op: AluOp::Shl,
                rd: v(2),
                rs1: v(1),
                imm: 2,
            })),
            VItem::Inst(VInst::always(VOp::AluI {
                op: AluOp::Add,
                rd: v(1),
                rs1: v(1),
                imm: 1,
            })),
            VItem::Inst(VInst::always(VOp::AluI {
                op: AluOp::Shl,
                rd: v(3),
                rs1: v(1),
                imm: 2,
            })),
            VItem::Inst(VInst::always(VOp::Halt)),
        ]);
        assert!(!run(&mut m), "shl of the updated v1 must be recomputed");
    }
}
