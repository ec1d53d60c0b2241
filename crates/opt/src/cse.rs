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

use patmos_isa::{AccessSize, AluOp, MemArea, Op};
use patmos_lir::{Function, VItem, VOp, VReg};

use crate::cache::Analyses;
use crate::util::{commutative, copy_op, ByReg, Scratch};

/// A multiplicative hasher (the `FxHash` scheme of rustc) for the
/// expression keys: opcodes and register ids the compiler numbered
/// itself, for which SipHash's resistance to chosen keys only costs
/// time.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(i.into());
    }

    fn write_u16(&mut self, i: u16) {
        self.add(i.into());
    }

    fn write_u32(&mut self, i: u32) {
        self.add(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed through [`FxHasher`].
type FxHashMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<FxHasher>>;

/// A pure expression over current register values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Alu(AluOp, VReg, VReg),
    AluImm(AluOp, VReg, i16),
    Imm(u32),
    /// A symbol's address, by the symbol's index in [`Symbols`].
    Sym(u32),
    Load(MemArea, AccessSize, VReg, i16),
}

/// The symbols the pass has seen over one pipeline run, so a symbol key
/// is an index rather than a copy of the name.
#[derive(Default)]
struct Symbols(Vec<String>);

impl Symbols {
    fn index(&mut self, sym: &str) -> u32 {
        let at = match self.0.iter().position(|s| s == sym) {
            Some(at) => at,
            None => {
                self.0.push(sym.to_string());
                self.0.len() - 1
            }
        };
        at as u32
    }
}

impl Key {
    /// The registers the expression reads.
    fn operands(&self) -> [Option<VReg>; 2] {
        match *self {
            Key::Alu(_, a, b) => [Some(a), Some(b)],
            Key::AluImm(_, a, _) | Key::Load(_, _, a, _) => [Some(a), None],
            Key::Imm(_) | Key::Sym(_) => [None, None],
        }
    }

    /// Whether the expression reads register `d`.
    fn reads(&self, d: VReg) -> bool {
        self.operands().contains(&Some(d))
    }

    /// The expression computed by `op`, if it is CSE-able. When
    /// `imm_keys` is false, expressions embedding an immediate are not
    /// numbered: matching them makes code *shape* depend on literal
    /// *values*, which single-path mode forbids (two compilations
    /// differing only in a constant must emit the same instruction
    /// sequence).
    fn of(op: &VOp, imm_keys: bool, symbols: &mut Symbols) -> Option<Key> {
        match op {
            VOp::Machine(Op::AluR {
                op,
                rd: _,
                rs1,
                rs2,
            }) => {
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
            VOp::Machine(Op::AluI { op, rs1, imm, .. }) if imm_keys => {
                Some(Key::AluImm(*op, *rs1, *imm))
            }
            VOp::Machine(Op::LoadImmLow { imm, .. }) if imm_keys => {
                Some(Key::Imm(*imm as i16 as i32 as u32))
            }
            VOp::Machine(Op::LoadImm32 { imm, .. }) if imm_keys => Some(Key::Imm(*imm)),
            VOp::LilSym { sym, .. } => Some(Key::Sym(symbols.index(sym))),
            VOp::Machine(Op::Load {
                area,
                size,
                ra,
                offset,
                ..
            }) => Some(Key::Load(*area, *size, *ra, *offset)),
            _ => None,
        }
    }
}

/// One available expression: the register holding it, and the
/// generations ([`Avail`]) of that register, of the expression's
/// operands and — for a load — of memory when it was recorded.
#[derive(Clone, Copy)]
struct Entry {
    holder: VReg,
    stamp: [u32; 4],
}

/// The expressions available in the current block. Killing a register
/// or memory does not scan the table: it bumps a generation, and an
/// entry recorded under an older generation of its holder, its operands
/// or (for a load) memory is no longer available.
#[derive(Default)]
struct Avail {
    map: FxHashMap<Key, Entry>,
    /// Generation of each register; bumped by every def.
    gens: ByReg<u32>,
    /// Generation of memory; bumped by every store and call.
    memory: u32,
}

impl Avail {
    fn stamp(&self, key: &Key, holder: VReg) -> [u32; 4] {
        let [a, b] = key.operands().map(|r| r.map_or(0, |r| self.gens.get(r)));
        let memory = if matches!(key, Key::Load(..)) {
            self.memory
        } else {
            0
        };
        [self.gens.get(holder), a, b, memory]
    }

    /// The register holding `key`, if it is still available.
    fn get(&self, key: &Key) -> Option<VReg> {
        let entry = self.map.get(key)?;
        (entry.stamp == self.stamp(key, entry.holder)).then_some(entry.holder)
    }

    fn insert(&mut self, key: Key, holder: VReg) {
        let stamp = self.stamp(&key, holder);
        self.map.insert(key, Entry { holder, stamp });
    }

    /// `d` is redefined: every expression held in or reading it dies.
    fn kill_reg(&mut self, d: VReg) {
        *self.gens.slot(d) += 1;
    }

    /// Memory may have changed: every load dies.
    fn kill_loads(&mut self) {
        self.memory += 1;
    }
}

/// The pass's tables, kept in [`Scratch`] across applications.
#[derive(Default)]
pub(crate) struct Tables {
    avail: Avail,
    symbols: Symbols,
}

impl Tables {
    /// Tables with room for the registers `0..regs`.
    pub(crate) fn with_regs(regs: usize) -> Tables {
        let avail = Avail {
            gens: ByReg::with_regs(regs),
            ..Avail::default()
        };
        Tables {
            avail,
            ..Tables::default()
        }
    }
}

/// Runs the pass over every block of one function.
pub(crate) fn run(func: &mut Function<VItem>, cache: &mut Analyses, scratch: &mut Scratch) -> bool {
    run_with(func, cache, &mut scratch.cse, true)
}

/// The shape-stable variant: no immediate-valued expression keys.
pub(crate) fn run_shape_stable(
    func: &mut Function<VItem>,
    cache: &mut Analyses,
    scratch: &mut Scratch,
) -> bool {
    run_with(func, cache, &mut scratch.cse, false)
}

fn run_with(
    func: &mut Function<VItem>,
    cache: &mut Analyses,
    tables: &mut Tables,
    imm_keys: bool,
) -> bool {
    let mut changed = false;
    let Tables { avail, symbols } = tables;
    avail.gens.clear();
    avail.memory = 0;
    for block in cache.with_cfg(func).blocks() {
        avail.map.clear();
        for &idx in block {
            let VItem::Inst(inst) = &mut func.items[idx] else {
                unreachable!("blocks contain instruction indices only");
            };
            match &inst.op {
                VOp::Machine(Op::Store {
                    area,
                    size,
                    ra,
                    offset,
                    rs,
                }) => {
                    // The store may overwrite any tracked address.
                    let (area, size, ra, offset, rs) = (*area, *size, *ra, *offset, *rs);
                    avail.kill_loads();
                    if inst.guard.is_always() && size == AccessSize::Word && !rs.is_zero() {
                        avail.insert(Key::Load(area, size, ra, offset), rs);
                    }
                    continue;
                }
                VOp::CallFunc(_) => {
                    // The callee may store anywhere.
                    avail.kill_loads();
                    continue;
                }
                _ => {}
            }
            let Some(d) = inst.op.def() else { continue };
            if !inst.guard.is_always() {
                avail.kill_reg(d);
                continue;
            }
            match Key::of(&inst.op, imm_keys, symbols) {
                Some(key) => {
                    let held = avail.get(&key);
                    if let Some(w) = held {
                        if w != d {
                            inst.op = copy_op(d, w);
                            changed = true;
                        }
                    }
                    avail.kill_reg(d);
                    // The value stays available in `w` (w ≠ d is
                    // guaranteed: entries held in d died when d was
                    // redefined), or is now available in `d` — unless
                    // the expression itself read the register just
                    // overwritten.
                    if !key.reads(d) {
                        avail.insert(key, held.unwrap_or(d));
                    }
                }
                None => avail.kill_reg(d),
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
            VItem::Inst(VInst::always(Op::AluI {
                op: AluOp::Shl,
                rd: v(scaled),
                rs1: v(idx),
                imm: 2,
            })),
            VItem::Inst(VInst::always(Op::AluR {
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
        items.push(VItem::Inst(VInst::always(Op::Halt)));
        let mut m = func(items);
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
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
        crate::copyprop::run(&mut m, &mut Analyses::default(), &mut Scratch::default());
        assert!(
            run(&mut m, &mut Analyses::default(), &mut Scratch::default()),
            "second round collapses the dependent add"
        );
        let VItem::Inst(inst) = &m.items[5] else {
            panic!()
        };
        assert!(as_copy(&inst.op).is_some(), "{inst}");
    }

    #[test]
    fn store_invalidates_loads_and_forwards_its_value() {
        let load = |rd: u32| {
            VItem::Inst(VInst::always(Op::Load {
                area: MemArea::Static,
                size: AccessSize::Word,
                rd: v(rd),
                ra: v(1),
                offset: 0,
            }))
        };
        let mut m = func(vec![
            load(2),
            VItem::Inst(VInst::always(Op::Store {
                area: MemArea::Static,
                size: AccessSize::Word,
                ra: v(1),
                offset: 0,
                rs: v(3),
            })),
            load(4),
            VItem::Inst(VInst::always(Op::Halt)),
        ]);
        assert!(run(
            &mut m,
            &mut Analyses::default(),
            &mut Scratch::default()
        ));
        // The reload after the store forwards the stored register.
        let VItem::Inst(inst) = &m.items[2] else {
            panic!()
        };
        assert_eq!(as_copy(&inst.op), Some((v(4), v(3))));
    }

    #[test]
    fn redefined_operand_kills_the_expression() {
        let mut m = func(vec![
            VItem::Inst(VInst::always(Op::AluI {
                op: AluOp::Shl,
                rd: v(2),
                rs1: v(1),
                imm: 2,
            })),
            VItem::Inst(VInst::always(Op::AluI {
                op: AluOp::Add,
                rd: v(1),
                rs1: v(1),
                imm: 1,
            })),
            VItem::Inst(VInst::always(Op::AluI {
                op: AluOp::Shl,
                rd: v(3),
                rs1: v(1),
                imm: 2,
            })),
            VItem::Inst(VInst::always(Op::Halt)),
        ]);
        assert!(
            !run(&mut m, &mut Analyses::default(), &mut Scratch::default()),
            "shl of the updated v1 must be recomputed"
        );
    }
}
