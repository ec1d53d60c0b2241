//! Backward liveness dataflow over the virtual-register CFG.
//!
//! One solve, [`BlockLiveness::solve`], finds the registers live at
//! every block boundary of a function. Its sets are dense bitsets
//! indexed by [`VReg::id`], so a fixpoint iteration is a few word-wide
//! `or`/`and-not` operations per block. Every consumer reads a view of
//! that one solve:
//!
//! * dead-code elimination walks each block backward from its live-out
//!   set, and loop-invariant code motion tests a loop header's live-in
//!   set ([`BlockLiveness::live_out`], [`BlockLiveness::live_in`]);
//! * the register allocator calls [`analyze`], which adds one
//!   conservative live interval per virtual register (the `[first,
//!   last]` position span of every point where the value is live, with
//!   live-through blocks extending the span to their boundaries — the
//!   linearised-extent form linear scan wants) and the precise set of
//!   registers live *after* each call position, which is exactly the set
//!   the allocator must save around the call.
//!
//! A def under a non-always guard counts as a use as well: when the
//! guard is false the old value flows through, so the register must stay
//! live (and keep the same physical register) across the guarded write.
//! [`VRegSet::step_back`] is the one place that rule is applied.

use crate::cfg::{FuncCode, VCfg};
use crate::vlir::{VInst, VReg};

/// A set of virtual registers as a dense bitset: bit `id % 64` of word
/// `id / 64` stands for the register with that id.
///
/// `VRegSet<&[u64]>` is a block set borrowed from a [`BlockLiveness`];
/// the owned `VRegSet` is the working set of a backward walk.
#[derive(Debug, Default)]
pub struct VRegSet<W = Vec<u64>> {
    words: W,
}

impl<W: AsRef<[u64]>> VRegSet<W> {
    /// Whether `v` is in the set.
    pub fn contains(&self, v: VReg) -> bool {
        let id = v.id() as usize;
        self.words
            .as_ref()
            .get(id / 64)
            .is_some_and(|w| w >> (id % 64) & 1 != 0)
    }

    /// The members, in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = VReg> + '_ {
        self.words
            .as_ref()
            .iter()
            .enumerate()
            .flat_map(|(i, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    (rest != 0).then(|| {
                        let bit = rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        VReg::new((i * 64 + bit) as u32)
                    })
                })
            })
    }
}

impl VRegSet {
    /// Replaces the contents with those of `other`.
    pub fn assign(&mut self, other: &VRegSet<&[u64]>) {
        self.words.clear();
        self.words.extend_from_slice(other.words);
    }

    /// Adds `v`; returns whether it was absent.
    pub fn insert(&mut self, v: VReg) -> bool {
        let id = v.id() as usize;
        if id / 64 >= self.words.len() {
            self.words.resize(id / 64 + 1, 0);
        }
        let word = &mut self.words[id / 64];
        let absent = *word >> (id % 64) & 1 == 0;
        *word |= 1 << (id % 64);
        absent
    }

    /// Empties the set, keeping its storage.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Removes `v`; returns whether it was present.
    pub fn remove(&mut self, v: VReg) -> bool {
        let id = v.id() as usize;
        match self.words.get_mut(id / 64) {
            Some(w) => {
                let present = *w >> (id % 64) & 1 != 0;
                *w &= !(1 << (id % 64));
                present
            }
            None => false,
        }
    }

    /// Steps the set backward over `inst`: from the registers live after
    /// it to the registers live before it. An unguarded def kills its
    /// register; a guarded def reads it, because an annulled write lets
    /// the old value through.
    pub fn step_back(&mut self, inst: &VInst) {
        if let Some(d) = inst.op.def() {
            if inst.guard.is_always() {
                self.remove(d);
            } else {
                self.insert(d);
            }
        }
        for u in inst.op.uses().into_iter().flatten() {
            self.insert(u);
        }
    }
}

/// The registers live at every block boundary of one function: one
/// backward dataflow solve over dense bitsets.
#[derive(Debug, PartialEq, Eq)]
pub struct BlockLiveness {
    /// `u64` words per set; every register id of the function fits.
    words: usize,
    /// Live-in sets, `words` words per block, in `VCfg::blocks` order.
    live_in: Vec<u64>,
    /// Live-out sets, laid out like `live_in`.
    live_out: Vec<u64>,
}

impl BlockLiveness {
    /// Solves block-level liveness for one function.
    pub fn solve(func: &FuncCode<'_>, cfg: &VCfg) -> BlockLiveness {
        let max_id = func
            .iter()
            .flat_map(|(_, inst)| inst.op.uses().into_iter().flatten().chain(inst.op.def()))
            .map(|v| v.id() as usize)
            .max()
            .unwrap_or(0);
        let words = max_id / 64 + 1;
        let nblocks = cfg.blocks.len();

        // Per block: gen, the registers read before any unguarded def
        // (a backward walk from the empty set), and kill, the registers
        // an unguarded def overwrites.
        let mut gen = vec![0u64; nblocks * words];
        let mut kill = vec![0u64; nblocks * words];
        let mut walk = VRegSet {
            words: vec![0; words],
        };
        let mut defs = VRegSet {
            words: vec![0; words],
        };
        for (bi, block) in cfg.blocks.iter().enumerate() {
            walk.words.fill(0);
            defs.words.fill(0);
            for pos in (block.first..block.end).rev() {
                let inst = func.inst(pos);
                walk.step_back(inst);
                if let Some(d) = inst.op.def().filter(|_| inst.guard.is_always()) {
                    defs.insert(d);
                }
            }
            gen[bi * words..(bi + 1) * words].copy_from_slice(&walk.words);
            kill[bi * words..(bi + 1) * words].copy_from_slice(&defs.words);
        }

        // live_out = ∪ live_in(succ), live_in = gen ∪ (live_out − kill),
        // iterated in reverse block order to the least fixpoint.
        let mut live_in = vec![0u64; nblocks * words];
        let mut live_out = vec![0u64; nblocks * words];
        let mut changed = true;
        while changed {
            changed = false;
            for (bi, block) in cfg.blocks.iter().enumerate().rev() {
                for w in 0..words {
                    let i = bi * words + w;
                    let out = block
                        .succs
                        .iter()
                        .fold(0, |acc, &s| acc | live_in[s * words + w]);
                    let inn = gen[i] | (out & !kill[i]);
                    if out != live_out[i] || inn != live_in[i] {
                        changed = true;
                        live_out[i] = out;
                        live_in[i] = inn;
                    }
                }
            }
        }

        BlockLiveness {
            words,
            live_in,
            live_out,
        }
    }

    /// The registers live at the entry of `block` (indexed like
    /// `VCfg::blocks`).
    pub fn live_in(&self, block: usize) -> VRegSet<&[u64]> {
        VRegSet {
            words: &self.live_in[block * self.words..(block + 1) * self.words],
        }
    }

    /// The registers live at the exit of `block` (indexed like
    /// `VCfg::blocks`).
    pub fn live_out(&self, block: usize) -> VRegSet<&[u64]> {
        VRegSet {
            words: &self.live_out[block * self.words..(block + 1) * self.words],
        }
    }
}

/// A live interval over instruction positions, inclusive on both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// The virtual register.
    pub vreg: VReg,
    /// First live position.
    pub start: usize,
    /// Last live position.
    pub end: usize,
}

/// The register allocator's view of one function's liveness.
pub struct Liveness {
    /// Intervals sorted by `(start, vreg id)`.
    pub intervals: Vec<Interval>,
    /// For each call position (same order as `VCfg::call_positions`),
    /// the virtual registers live after the call, sorted by id.
    pub live_across_calls: Vec<Vec<VReg>>,
}

/// Computes the live intervals and live-across-call sets of one
/// function from its [`BlockLiveness`].
pub fn analyze(func: &FuncCode<'_>, cfg: &VCfg) -> Liveness {
    let blocks = BlockLiveness::solve(func, cfg);

    // Intervals: every register's (first, last) live position in a
    // table indexed by id, widened at each read or write and at the
    // boundaries of every block it is live into or out of.
    let mut span = vec![(usize::MAX, 0usize); blocks.words * 64];
    let mut extend = |v: VReg, pos: usize| {
        let s = &mut span[v.id() as usize];
        *s = (s.0.min(pos), s.1.max(pos));
    };
    for (bi, block) in cfg.blocks.iter().enumerate() {
        for v in blocks.live_out(bi).iter() {
            extend(v, block.end - 1);
        }
        for v in blocks.live_in(bi).iter() {
            extend(v, block.first);
        }
        for pos in block.first..block.end {
            let op = &func.inst(pos).op;
            for v in op.uses().into_iter().flatten().chain(op.def()) {
                extend(v, pos);
            }
        }
    }
    let mut intervals: Vec<Interval> = span
        .iter()
        .enumerate()
        .filter(|(_, &(start, _))| start != usize::MAX)
        .map(|(id, &(start, end))| Interval {
            vreg: VReg::new(id as u32),
            start,
            end,
        })
        .collect();
    intervals.sort_unstable_by_key(|iv| (iv.start, iv.vreg.id()));

    // Per-call live-after sets: walk the call's block backwards from its
    // live-out, stopping once the call position is reached.
    let mut live = VRegSet::default();
    let live_across_calls = cfg
        .call_positions
        .iter()
        .map(|&call_pos| {
            let bi = cfg.block_of(call_pos);
            live.assign(&blocks.live_out(bi));
            for pos in (call_pos + 1..cfg.blocks[bi].end).rev() {
                live.step_back(func.inst(pos));
            }
            live.iter().collect()
        })
        .collect();

    Liveness {
        intervals,
        live_across_calls,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{build_vcfg, inst_positions, FuncCode};
    use crate::vlir::{VInst, VItem, VOp};
    use crate::Function;
    use patmos_isa::{AluOp, Guard, Op, Pred};

    fn v(id: u32) -> VReg {
        VReg::new(id)
    }

    fn inst(op: impl Into<VOp>) -> VItem {
        VItem::Inst(VInst::always(op))
    }

    fn analyze_items(items: &[VItem]) -> Liveness {
        let func = Function::new("f", items.to_vec());
        let positions = inst_positions(&func.items);
        let code = FuncCode::new(&func, &positions);
        analyze(&code, &build_vcfg(&code).expect("labels resolve"))
    }

    #[test]
    fn straight_line_intervals() {
        let items = vec![
            inst(Op::LoadImmLow { rd: v(1), imm: 1 }), // 0: def v1
            inst(Op::LoadImmLow { rd: v(2), imm: 2 }), // 1: def v2
            inst(Op::AluR {
                op: AluOp::Add,
                rd: v(3),
                rs1: v(1),
                rs2: v(2),
            }), // 2
            inst(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R1,
                src: v(3),
            }), // 3
            inst(Op::Halt),                            // 4
        ];
        let l = analyze_items(&items);
        let of = |id: u32| {
            l.intervals
                .iter()
                .find(|iv| iv.vreg == v(id))
                .copied()
                .unwrap()
        };
        assert_eq!((of(1).start, of(1).end), (0, 2));
        assert_eq!((of(2).start, of(2).end), (1, 2));
        assert_eq!((of(3).start, of(3).end), (2, 3));
    }

    #[test]
    fn loop_carried_value_spans_the_back_edge() {
        // v1 defined before the loop, updated inside, used after: its
        // interval must cover the whole loop body.
        let items = vec![
            inst(Op::LoadImmLow { rd: v(1), imm: 5 }), // 0
            VItem::Label("f_head".into()),
            inst(Op::AluI {
                op: AluOp::Sub,
                rd: v(1),
                rs1: v(1),
                imm: 1,
            }), // 1
            inst(Op::CmpI {
                op: patmos_isa::CmpOp::Neq,
                pd: Pred::P6,
                rs1: v(1),
                imm: 0,
            }), // 2
            VItem::Inst(VInst::new(
                Guard::when(Pred::P6),
                VOp::BrLabel("f_head".into()),
            )), // 3
            inst(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R1,
                src: v(1),
            }), // 4
            inst(Op::Halt), // 5
        ];
        let l = analyze_items(&items);
        let iv = l.intervals.iter().find(|iv| iv.vreg == v(1)).unwrap();
        assert_eq!((iv.start, iv.end), (0, 4));
    }

    #[test]
    fn guarded_def_keeps_value_live() {
        // (p1) li v1 = 7 must treat v1 as used: the old value survives
        // when the guard is false.
        let items = vec![
            inst(Op::LoadImmLow { rd: v(1), imm: 0 }), // 0
            VItem::Inst(VInst::new(
                Guard::when(Pred::P1),
                Op::LoadImmLow { rd: v(1), imm: 7 },
            )), // 1
            inst(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R1,
                src: v(1),
            }), // 2
            inst(Op::Halt),                            // 3
        ];
        let l = analyze_items(&items);
        let iv = l.intervals.iter().find(|iv| iv.vreg == v(1)).unwrap();
        assert_eq!((iv.start, iv.end), (0, 2));
    }

    #[test]
    fn live_across_call_is_precise() {
        let items = vec![
            inst(Op::LoadImmLow { rd: v(1), imm: 1 }), // 0: live across
            inst(Op::LoadImmLow { rd: v(2), imm: 2 }), // 1: dead at call
            inst(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R3,
                src: v(2),
            }), // 2
            inst(VOp::CallFunc("g".into())),           // 3
            inst(VOp::CopyFromPhys {
                dst: v(3),
                src: patmos_isa::Reg::R1,
            }), // 4
            inst(Op::AluR {
                op: AluOp::Add,
                rd: v(4),
                rs1: v(1),
                rs2: v(3),
            }), // 5
            inst(VOp::CopyToPhys {
                dst: patmos_isa::Reg::R1,
                src: v(4),
            }), // 6
            inst(Op::Halt),                            // 7
        ];
        let l = analyze_items(&items);
        assert_eq!(l.live_across_calls, vec![vec![v(1)]]);
    }

    #[test]
    fn sets_span_word_boundaries() {
        let mut set = VRegSet::default();
        for id in [1, 63, 64, 130] {
            assert!(set.insert(v(id)));
        }
        assert!(!set.insert(v(63)), "already present");
        assert!(set.remove(v(64)));
        assert!(!set.remove(v(64)) && !set.remove(v(500)), "already absent");
        assert!(set.contains(v(63)) && !set.contains(v(64)) && !set.contains(v(999)));
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![v(1), v(63), v(130)]);
        set.clear();
        assert_eq!(set.iter().count(), 0);
    }
}
