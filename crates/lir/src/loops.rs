//! Natural-loop forest over the virtual-register CFG.
//!
//! A *back edge* is a CFG edge whose target dominates its source
//! ([`crate::dom`]); the *natural loop* of a back edge `latch → header`
//! is the header plus every block that reaches the latch without
//! passing through the header. Back edges sharing a header are merged
//! into one loop, and loops nest by block containment, giving the
//! forest the loop passes of `patmos-opt` (LICM's preheader placement,
//! the unroller's trip-count analysis) and `patmos-cli --dump-loops`
//! walk.
//!
//! The PatC code generator produces exactly this shape for `while` and
//! `for` loops — a `.loopbound`-annotated header entered by fall-through
//! and one branch back from the latch — so every source loop appears
//! here, and the recorded bound rides along.
//!
//! # Example
//!
//! ```
//! use patmos_isa::{AluOp, Guard, Op, Pred};
//! use patmos_lir::vlir::{VInst, VItem, VOp, VReg};
//! use patmos_lir::{build_vcfg, inst_positions, FuncCode, Function, LoopForest};
//!
//! let items = vec![
//!     VItem::Inst(VInst::always(Op::LoadImmLow { rd: VReg::new(1), imm: 8 })),
//!     VItem::LoopBound { min: 1, max: 9 },
//!     VItem::Label("f_head1".into()),
//!     VItem::Inst(VInst::always(Op::CmpI {
//!         op: patmos_isa::CmpOp::Lt,
//!         pd: Pred::P6,
//!         rs1: VReg::new(2),
//!         imm: 8,
//!     })),
//!     VItem::Inst(VInst::new(Guard::unless(Pred::P6), VOp::BrLabel("f_exit2".into()))),
//!     VItem::Inst(VInst::always(Op::AluI {
//!         op: AluOp::Add,
//!         rd: VReg::new(2),
//!         rs1: VReg::new(2),
//!         imm: 1,
//!     })),
//!     VItem::Inst(VInst::always(VOp::BrLabel("f_head1".into()))),
//!     VItem::Label("f_exit2".into()),
//!     VItem::Inst(VInst::always(Op::Halt)),
//! ];
//! let func = Function::new("f", items);
//! let positions = inst_positions(&func.items);
//! let cfg = build_vcfg(&FuncCode::new(&func, &positions)).expect("labels resolve");
//! let forest = LoopForest::build(&cfg);
//! assert_eq!(forest.loops.len(), 1);
//! let lp = &forest.loops[0];
//! assert_eq!(lp.header, 1);          // the `f_head1` block
//! assert_eq!(lp.latches, vec![2]);   // the body branches back
//! assert_eq!(lp.depth, 1);
//! assert!(lp.blocks.contains(&1) && lp.blocks.contains(&2));
//! ```

use crate::cfg::VCfg;
use crate::dom::DomTree;

/// One natural loop of a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaturalLoop {
    /// Header block (the target of the back edges; dominates the loop).
    pub header: usize,
    /// Source blocks of the back edges, in block order.
    pub latches: Vec<usize>,
    /// All member blocks, sorted (always includes `header`).
    pub blocks: Vec<usize>,
    /// Index of the innermost enclosing loop in
    /// [`LoopForest::loops`], if any.
    pub parent: Option<usize>,
    /// Nesting depth: 1 for an outermost loop.
    pub depth: u32,
}

impl NaturalLoop {
    /// Whether `block` belongs to this loop.
    pub fn contains(&self, block: usize) -> bool {
        self.blocks.binary_search(&block).is_ok()
    }
}

/// The loop forest of one function, ordered by header block index (so
/// an enclosing loop always precedes the loops nested inside it).
#[derive(Debug, PartialEq, Eq)]
pub struct LoopForest {
    /// All natural loops; nested loops point at their parent.
    pub loops: Vec<NaturalLoop>,
}

impl LoopForest {
    /// Discovers the natural loops of `cfg`.
    pub fn build(cfg: &VCfg) -> LoopForest {
        let dom = DomTree::build(cfg);
        Self::build_with_dom(cfg, &dom)
    }

    /// Like [`LoopForest::build`], reusing an existing dominator tree.
    pub fn build_with_dom(cfg: &VCfg, dom: &DomTree) -> LoopForest {
        // Collect back edges, grouped by header.
        let mut by_header: Vec<(usize, Vec<usize>)> = Vec::new();
        for (b, block) in cfg.blocks.iter().enumerate() {
            for &s in &block.succs {
                if dom.dominates(s, b) {
                    match by_header.iter_mut().find(|(h, _)| *h == s) {
                        Some((_, latches)) => latches.push(b),
                        None => by_header.push((s, vec![b])),
                    }
                }
            }
        }
        by_header.sort_by_key(|&(h, _)| h);

        // Natural loop of each header: backward flood fill from the
        // latches, stopping at the header.
        let mut loops: Vec<NaturalLoop> = by_header
            .into_iter()
            .map(|(header, mut latches)| {
                latches.sort_unstable();
                latches.dedup();
                let mut member = vec![false; cfg.blocks.len()];
                member[header] = true;
                let mut work: Vec<usize> = latches.clone();
                while let Some(b) = work.pop() {
                    if member[b] {
                        continue;
                    }
                    member[b] = true;
                    work.extend(cfg.blocks[b].preds.iter().copied());
                }
                let blocks: Vec<usize> = (0..cfg.blocks.len()).filter(|&b| member[b]).collect();
                NaturalLoop {
                    header,
                    latches,
                    blocks,
                    parent: None,
                    depth: 1,
                }
            })
            .collect();

        // Nesting: the innermost enclosing loop is the smallest other
        // loop containing the header.
        for i in 0..loops.len() {
            let mut best: Option<usize> = None;
            for j in 0..loops.len() {
                if i == j
                    || !loops[j].contains(loops[i].header)
                    || loops[j].header == loops[i].header
                {
                    continue;
                }
                if best.is_none_or(|b| loops[j].blocks.len() < loops[b].blocks.len()) {
                    best = Some(j);
                }
            }
            loops[i].parent = best;
        }
        for i in 0..loops.len() {
            let mut depth = 1;
            let mut cur = loops[i].parent;
            while let Some(p) = cur {
                depth += 1;
                cur = loops[p].parent;
            }
            loops[i].depth = depth;
        }

        LoopForest { loops }
    }

    /// Index (into [`LoopForest::loops`]) of the innermost loop
    /// containing each of the `num_blocks` blocks, `None` outside any
    /// loop. The innermost loop is the smallest member loop, which by
    /// construction is unique.
    pub fn innermost_per_block(&self, num_blocks: usize) -> Vec<Option<usize>> {
        let mut innermost: Vec<Option<usize>> = vec![None; num_blocks];
        for (b, slot) in innermost.iter_mut().enumerate() {
            for (i, lp) in self.loops.iter().enumerate() {
                if lp.contains(b)
                    && slot
                        .is_none_or(|best: usize| lp.blocks.len() < self.loops[best].blocks.len())
                {
                    *slot = Some(i);
                }
            }
        }
        innermost
    }

    /// Nesting depth of each of the `num_blocks` blocks: 0 outside any
    /// loop, otherwise the depth of the innermost containing loop.
    pub fn depth_per_block(&self, num_blocks: usize) -> Vec<u32> {
        self.innermost_per_block(num_blocks)
            .into_iter()
            .map(|lp| lp.map_or(0, |i| self.loops[i].depth))
            .collect()
    }

    /// Whether loop `i` has any loop nested inside it.
    pub fn has_children(&self, i: usize) -> bool {
        self.loops.iter().any(|lp| lp.parent == Some(i))
    }
}

/// The items leading a loop header: its label and the `.loopbound`
/// attached to it, as produced by [`header_lead`].
pub struct HeaderLead<'a> {
    /// Item index where the header's own lead begins — the preheader
    /// insertion point, and the start of the loop's item span.
    pub start: usize,
    /// The header's label, when the block is named.
    pub label: Option<&'a str>,
    /// The `.loopbound` annotation, when present.
    pub bound: Option<(u32, u32)>,
}

/// Walks back from a header block's first instruction item over the
/// header's *own* leading items: at most one label and the
/// `.loopbound` attached to it (the generator emits them in that
/// order). The walk deliberately stops there — an earlier label in the
/// same run belongs to something else (typically the join label of a
/// branching `if` right before the loop) and is a live side entry that
/// code placement and span rewrites must never cross. All loop passes
/// share this one definition of "where a loop begins".
pub fn header_lead(items: &[crate::vlir::VItem], first_inst_item: usize) -> HeaderLead<'_> {
    use crate::vlir::VItem;
    let mut lead = HeaderLead {
        start: first_inst_item,
        label: None,
        bound: None,
    };
    if lead.start > 0 {
        if let VItem::Label(l) = &items[lead.start - 1] {
            lead.label = Some(l.as_str());
            lead.start -= 1;
        }
    }
    if lead.start > 0 {
        if let VItem::LoopBound { min, max } = items[lead.start - 1] {
            lead.bound = Some((min, max));
            lead.start -= 1;
        }
    }
    lead
}

/// Renders the loop forest of every function for human inspection
/// (`patmos-cli compile --dump-loops`): one line per loop, indented by
/// nesting depth, with the header label, the `.loopbound` annotation
/// when present, and the member block/instruction counts.
pub fn render(module: &crate::vlir::VModule) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    for func in &module.funcs {
        let positions = crate::cfg::inst_positions(&func.items);
        let code = crate::cfg::FuncCode::new(func, &positions);
        let cfg = match crate::cfg::build_vcfg(&code) {
            Ok(cfg) => cfg,
            Err(e) => {
                writeln!(out, ".func {}: {e}", func.name).ok();
                continue;
            }
        };
        let forest = LoopForest::build(&cfg);
        writeln!(out, ".func {}: {} loop(s)", func.name, forest.loops.len()).ok();
        for lp in &forest.loops {
            let first_item = code.insts[cfg.blocks[lp.header].first];
            let lead = header_lead(&func.items, first_item);
            let label = lead.label.unwrap_or("<entry>");
            let bound = lead.bound;
            let insts: usize = lp
                .blocks
                .iter()
                .map(|&b| cfg.blocks[b].end - cfg.blocks[b].first)
                .sum();
            let indent = "  ".repeat(lp.depth as usize);
            let bound = match bound {
                Some((min, max)) => format!("bound {min}..{max}"),
                None => "unbounded".to_string(),
            };
            writeln!(
                out,
                "{indent}depth {} header {label} {bound} blocks {} insts {insts}",
                lp.depth,
                lp.blocks.len()
            )
            .ok();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{build_vcfg, inst_positions, FuncCode};
    use crate::vlir::{VInst, VItem, VOp, VReg};
    use crate::Function;
    use patmos_isa::{AluOp, CmpOp, Guard, Op, Pred};

    fn inst(op: impl Into<VOp>) -> VItem {
        VItem::Inst(VInst::always(op))
    }

    /// Two nested counted loops in the generator's shape.
    fn nested() -> Vec<VItem> {
        let v = VReg::new;
        vec![
            inst(Op::LoadImmLow { rd: v(1), imm: 0 }),
            VItem::Label("f_head1".into()),
            inst(Op::CmpI {
                op: CmpOp::Lt,
                pd: Pred::P6,
                rs1: v(1),
                imm: 4,
            }),
            VItem::Inst(VInst::new(
                Guard::unless(Pred::P6),
                VOp::BrLabel("f_exit1".into()),
            )),
            inst(Op::LoadImmLow { rd: v(2), imm: 0 }),
            VItem::Label("f_head2".into()),
            inst(Op::CmpI {
                op: CmpOp::Lt,
                pd: Pred::P6,
                rs1: v(2),
                imm: 4,
            }),
            VItem::Inst(VInst::new(
                Guard::unless(Pred::P6),
                VOp::BrLabel("f_exit2".into()),
            )),
            inst(Op::AluI {
                op: AluOp::Add,
                rd: v(2),
                rs1: v(2),
                imm: 1,
            }),
            inst(VOp::BrLabel("f_head2".into())),
            VItem::Label("f_exit2".into()),
            inst(Op::AluI {
                op: AluOp::Add,
                rd: v(1),
                rs1: v(1),
                imm: 1,
            }),
            inst(VOp::BrLabel("f_head1".into())),
            VItem::Label("f_exit1".into()),
            inst(Op::Halt),
        ]
    }

    #[test]
    fn nested_loops_form_a_two_level_forest() {
        let items = nested();
        let func = Function::new("f", items);
        let positions = inst_positions(&func.items);
        let cfg = build_vcfg(&FuncCode::new(&func, &positions)).expect("labels resolve");
        let forest = LoopForest::build(&cfg);
        assert_eq!(forest.loops.len(), 2);
        let outer = forest
            .loops
            .iter()
            .position(|l| l.depth == 1)
            .expect("outer loop");
        let inner = forest
            .loops
            .iter()
            .position(|l| l.depth == 2)
            .expect("inner loop");
        assert_eq!(forest.loops[inner].parent, Some(outer));
        assert!(forest.loops[outer].blocks.len() > forest.loops[inner].blocks.len());
        for &b in &forest.loops[inner].blocks {
            assert!(forest.loops[outer].contains(b), "inner ⊆ outer");
        }
    }

    #[test]
    fn straight_line_code_has_no_loops() {
        let items = vec![inst(Op::Halt)];
        let func = Function::new("f", items);
        let positions = inst_positions(&func.items);
        let cfg = build_vcfg(&FuncCode::new(&func, &positions)).expect("labels resolve");
        assert!(LoopForest::build(&cfg).loops.is_empty());
    }

    #[test]
    fn self_loop_is_its_own_latch() {
        let items = vec![
            inst(Op::LoadImmLow {
                rd: VReg::new(1),
                imm: 3,
            }),
            VItem::Label("f_head1".into()),
            inst(Op::AluI {
                op: AluOp::Sub,
                rd: VReg::new(1),
                rs1: VReg::new(1),
                imm: 1,
            }),
            VItem::Inst(VInst::new(
                Guard::when(Pred::P6),
                VOp::BrLabel("f_head1".into()),
            )),
            inst(Op::Halt),
        ];
        let func = Function::new("f", items);
        let positions = inst_positions(&func.items);
        let cfg = build_vcfg(&FuncCode::new(&func, &positions)).expect("labels resolve");
        let forest = LoopForest::build(&cfg);
        assert_eq!(forest.loops.len(), 1);
        assert_eq!(forest.loops[0].header, 1);
        assert_eq!(forest.loops[0].latches, vec![1]);
        assert_eq!(forest.loops[0].blocks, vec![1]);
    }
}
