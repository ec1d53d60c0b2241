//! Dominator tree over the virtual-register CFG.
//!
//! Implements the Cooper–Harper–Kennedy iterative algorithm ("A Simple,
//! Fast Dominance Algorithm"): immediate dominators are intersected
//! over the predecessors in reverse post-order until a fixed point.
//! The CFGs here are tiny (a handful of blocks per function), so the
//! simple quadratic worst case is irrelevant; what matters is that the
//! result is deterministic and the code is obviously correct.
//!
//! The tree is the foundation of the loop forest ([`crate::loops`]):
//! a back edge is an edge whose target dominates its source.
//!
//! # Example
//!
//! ```
//! use patmos_isa::{AluOp, Guard, Op, Pred};
//! use patmos_lir::vlir::{VInst, VItem, VOp, VReg};
//! use patmos_lir::{build_vcfg, inst_positions, DomTree, FuncCode, Function};
//!
//! // entry -> loop body (branches back to itself) -> exit
//! let items = vec![
//!     VItem::Inst(VInst::always(Op::LoadImmLow { rd: VReg::new(1), imm: 3 })),
//!     VItem::Label("f_head1".into()),
//!     VItem::Inst(VInst::always(Op::AluI {
//!         op: AluOp::Sub,
//!         rd: VReg::new(1),
//!         rs1: VReg::new(1),
//!         imm: 1,
//!     })),
//!     VItem::Inst(VInst::new(Guard::when(Pred::P6), VOp::BrLabel("f_head1".into()))),
//!     VItem::Inst(VInst::always(Op::Halt)),
//! ];
//! let func = Function::new("f", items);
//! let positions = inst_positions(&func.items);
//! let cfg = build_vcfg(&FuncCode::new(&func, &positions)).expect("labels resolve");
//! let dom = DomTree::build(&cfg);
//! assert_eq!(dom.idom(1), Some(0)); // the loop block is dominated by the entry
//! assert_eq!(dom.idom(2), Some(1)); // the exit only through the loop
//! assert!(dom.dominates(0, 2));
//! ```

use crate::cfg::VCfg;

/// The dominator tree of one function's [`VCfg`]; block 0 is the root.
#[derive(Debug, PartialEq, Eq)]
pub struct DomTree {
    /// Immediate dominator per block (`idom[0] == 0` by convention;
    /// unreachable blocks keep `usize::MAX`).
    idom: Vec<usize>,
    /// Blocks in reverse post-order of a depth-first walk from the
    /// entry. Unreachable blocks are absent.
    rpo: Vec<usize>,
}

impl DomTree {
    /// Computes the dominator tree of `cfg`.
    pub fn build(cfg: &VCfg) -> DomTree {
        let n = cfg.blocks.len();
        const UNDEF: usize = usize::MAX;

        // Post-order DFS from the entry (iterative, deterministic:
        // successors are visited in their stored order).
        let mut post: Vec<usize> = Vec::with_capacity(n);
        let mut state: Vec<u8> = vec![0; n]; // 0 unvisited, 1 open, 2 done
        if n > 0 {
            let mut stack: Vec<(usize, usize)> = vec![(0, 0)];
            state[0] = 1;
            while let Some(&mut (b, ref mut next)) = stack.last_mut() {
                let succs = &cfg.blocks[b].succs;
                if *next < succs.len() {
                    let s = succs[*next];
                    *next += 1;
                    if state[s] == 0 {
                        state[s] = 1;
                        stack.push((s, 0));
                    }
                } else {
                    state[b] = 2;
                    post.push(b);
                    stack.pop();
                }
            }
        }
        let rpo: Vec<usize> = post.iter().rev().copied().collect();
        // Position of each block within the reverse post-order; used as
        // the comparison key during intersection.
        let mut rpo_index = vec![UNDEF; n];
        for (i, &b) in rpo.iter().enumerate() {
            rpo_index[b] = i;
        }

        let mut idom = vec![UNDEF; n];
        if n > 0 {
            idom[0] = 0;
        }
        let intersect = |idom: &[usize], rpo_index: &[usize], mut a: usize, mut b: usize| {
            while a != b {
                while rpo_index[a] > rpo_index[b] {
                    a = idom[a];
                }
                while rpo_index[b] > rpo_index[a] {
                    b = idom[b];
                }
            }
            a
        };
        let mut changed = true;
        while changed {
            changed = false;
            for &b in rpo.iter().skip(1) {
                let mut new_idom = UNDEF;
                // An unreachable predecessor never gets an idom, so it
                // is skipped like a reachable one not yet reached.
                for &p in &cfg.blocks[b].preds {
                    if idom[p] == UNDEF {
                        continue;
                    }
                    new_idom = if new_idom == UNDEF {
                        p
                    } else {
                        intersect(&idom, &rpo_index, new_idom, p)
                    };
                }
                if new_idom != UNDEF && idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }

        DomTree { idom, rpo }
    }

    /// The immediate dominator of `block` (`None` for the entry and for
    /// unreachable blocks).
    pub fn idom(&self, block: usize) -> Option<usize> {
        match self.idom.get(block) {
            Some(&d) if d != usize::MAX && block != 0 => Some(d),
            _ => None,
        }
    }

    /// Whether `a` dominates `b` (every block dominates itself).
    /// Unreachable blocks dominate nothing and are dominated by nothing.
    pub fn dominates(&self, a: usize, b: usize) -> bool {
        if self.idom.get(b).copied().unwrap_or(usize::MAX) == usize::MAX {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            if cur == 0 {
                return false;
            }
            cur = self.idom[cur];
        }
    }

    /// Reachable blocks in reverse post-order (the entry first).
    pub fn reverse_post_order(&self) -> &[usize] {
        &self.rpo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{build_vcfg, inst_positions, FuncCode};
    use crate::vlir::{VInst, VItem, VOp, VReg};
    use crate::Function;
    use patmos_isa::{Guard, Op, Pred};

    fn inst(op: impl Into<VOp>) -> VItem {
        VItem::Inst(VInst::always(op))
    }

    /// A diamond: entry branches over a then-block to a join.
    fn diamond() -> Vec<VItem> {
        vec![
            inst(Op::CmpI {
                op: patmos_isa::CmpOp::Eq,
                pd: Pred::P6,
                rs1: VReg::new(1),
                imm: 0,
            }),
            VItem::Inst(VInst::new(
                Guard::unless(Pred::P6),
                VOp::BrLabel("f_else".into()),
            )),
            inst(Op::LoadImmLow {
                rd: VReg::new(2),
                imm: 1,
            }),
            VItem::Label("f_else".into()),
            inst(Op::Halt),
        ]
    }

    #[test]
    fn diamond_join_is_dominated_by_the_fork_only() {
        let items = diamond();
        let func = Function::new("f", items);
        let positions = inst_positions(&func.items);
        let cfg = build_vcfg(&FuncCode::new(&func, &positions)).expect("labels resolve");
        let dom = DomTree::build(&cfg);
        // Blocks: 0 = cmp+br, 1 = then, 2 = join.
        assert_eq!(dom.idom(1), Some(0));
        assert_eq!(dom.idom(2), Some(0), "the join has two predecessors");
        assert!(dom.dominates(0, 2));
        assert!(!dom.dominates(1, 2));
        assert!(dom.dominates(2, 2));
    }

    #[test]
    fn entry_has_no_idom_and_dominates_everything() {
        let items = diamond();
        let func = Function::new("f", items);
        let positions = inst_positions(&func.items);
        let cfg = build_vcfg(&FuncCode::new(&func, &positions)).expect("labels resolve");
        let dom = DomTree::build(&cfg);
        assert_eq!(dom.idom(0), None);
        for b in 0..cfg.blocks.len() {
            assert!(dom.dominates(0, b));
        }
        assert_eq!(dom.reverse_post_order()[0], 0);
    }
}
